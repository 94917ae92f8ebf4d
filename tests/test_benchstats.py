import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from gridsched import benchstats
from gridsched.baselines import GAConfig, SAConfig
from gridsched.benchstats import (
    ALGORITHMS,
    RUNS_CSV,
    TRACES_CSV,
    SolverSpec,
    StatsSummary,
    default_workers,
    export_csv,
    make_spec,
    relative_performance,
    run_experiment,
    run_experiments,
    run_solver,
)
from gridsched.fuzzy_de import SolverConfig
from gridsched.model import ConfigurationError
from reference_data import (
    REPORTED_MEAN_MAKESPANS,
    REPORTED_RELATIVE,
    REPORTED_RELATIVE_AVERAGES,
)


def quick_spec(seed: int = 0) -> SolverSpec:
    return SolverSpec("fuzzy-de", SolverConfig(population_size=6, max_iterations=15, seed=seed))


class TestSpecs:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec("tabu")
        with pytest.raises(ConfigurationError):
            SolverSpec("tabu", SolverConfig())

    def test_config_type_must_match(self):
        with pytest.raises(ConfigurationError):
            SolverSpec("sa", SolverConfig())

    def test_make_spec_maps_overrides(self):
        spec = make_spec("fuzzy-de", np=12, f=0.7, cr=0.4, iters=99)
        assert spec.config.population_size == 12
        assert spec.config.scaling_factor == 0.7
        assert spec.config.crossover_rate == 0.4
        assert spec.config.max_iterations == 99

    def test_make_spec_ignores_inapplicable_overrides(self):
        spec = make_spec("sa", np=12, f=0.7, cr=0.4, iters=99)
        assert isinstance(spec.config, SAConfig)

    @pytest.mark.parametrize(
        "algorithm, expected",
        [
            ("ga", {"population_size": 12, "crossover_rate": 0.4, "max_iterations": 99}),
            ("fuzzy-pso", {"population_size": 12, "max_iterations": 99}),
            ("sa", {}),
            ("de", {"population_size": 12, "scaling_factor": 0.7, "crossover_rate": 0.4,
                    "max_iterations": 99}),
            ("fuzzy-de", {"population_size": 12, "scaling_factor": 0.7, "crossover_rate": 0.4,
                          "max_iterations": 99}),
        ],
    )
    def test_make_spec_sets_the_fields_each_config_has(self, algorithm, expected):
        spec = make_spec(algorithm, np=12, f=0.7, cr=0.4, iters=99)
        assert spec.config == ALGORITHMS[algorithm].config_type(**expected)

    def test_every_algorithm_has_display_name(self):
        assert {info.display for info in ALGORITHMS.values()} == {
            "GA",
            "SA",
            "Fuzzy PSO",
            "DE",
            "Fuzzy DE",
        }


class TestRunExperiment:
    def test_single_run_has_zero_stddev(self, tiny_instance):
        summary = run_experiment(tiny_instance, quick_spec(), runs=1, master_seed=0)
        assert summary.stddev_makespan == 0.0
        assert summary.runs == 1

    def test_mean_and_population_stddev_formula(self, tiny_instance, monkeypatch):
        fake_values = {10: 1.0, 11: 2.0, 12: 3.0}

        def fake_run_solver(instance, spec, seed):
            real = run_solver(instance, spec, seed)
            return replace(real, best_makespan=fake_values[seed])

        monkeypatch.setattr(benchstats, "run_solver", fake_run_solver)
        summary = run_experiment(tiny_instance, quick_spec(), runs=3, master_seed=10)
        assert summary.per_run_makespans == (1.0, 2.0, 3.0)
        assert summary.mean_makespan == pytest.approx(2.0)
        assert summary.stddev_makespan == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_seeds_are_master_plus_index(self, tiny_instance):
        summary = run_experiment(tiny_instance, quick_spec(), runs=4, master_seed=50)
        direct = [
            run_solver(tiny_instance, quick_spec(), seed).best_makespan for seed in (50, 51, 52, 53)
        ]
        assert list(summary.per_run_makespans) == direct

    def test_rejects_zero_runs(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            run_experiment(tiny_instance, quick_spec(), runs=0, master_seed=0)

    def test_rejects_a_master_seed_that_is_not_an_integer(self, tiny_instance):
        with pytest.raises(ConfigurationError, match="^seed must be an integer, got '1'$"):
            run_experiments([(tiny_instance, quick_spec(), "tiny")], runs=1, master_seed="1")

    def test_solver_failure_reports_run_index(self, tiny_instance, monkeypatch):
        def exploding(instance, spec, seed):
            if seed == 7:
                raise ValueError("boom")
            return run_solver(instance, spec, seed)

        monkeypatch.setattr(benchstats, "run_solver", exploding)
        with pytest.raises(RuntimeError, match="run 2"):
            run_experiment(tiny_instance, quick_spec(), runs=5, master_seed=5)

    def test_aggregates_recomputable_from_per_run_values(self, tiny_instance):
        summary = run_experiment(tiny_instance, quick_spec(), runs=6, master_seed=3)
        values = np.array(summary.per_run_makespans)
        assert summary.mean_makespan == pytest.approx(float(values.mean()), abs=1e-12)
        assert summary.stddev_makespan == pytest.approx(float(values.std()), abs=1e-12)

    def test_parallel_matches_sequential(self, tiny_instance):
        sequential = run_experiment(tiny_instance, quick_spec(), runs=6, master_seed=1, workers=1)
        parallel = run_experiment(tiny_instance, quick_spec(), runs=6, master_seed=1, workers=3)
        assert sequential.per_run_makespans == parallel.per_run_makespans
        assert sequential.per_run_traces == parallel.per_run_traces

    def test_batch_matches_one_experiment_per_cell(self, tiny_instance, small_instance):
        sa = SolverSpec("sa", SAConfig(initial_temperature=5, cooling_rate=0.5,
                                       steps_per_temperature=5, min_temperature=1.0))
        cells = [(tiny_instance, quick_spec(), "tiny"), (small_instance, sa, "small"),
                 (small_instance, quick_spec(), "small")]
        batch = run_experiments(cells, runs=3, master_seed=4, workers=2)
        for summary, (instance, spec, name) in zip(batch, cells, strict=True):
            alone = run_experiment(instance, spec, 3, 4, instance_name=name)
            assert replace(summary, mean_wall_time=0.0, per_run_wall_times=()) == replace(
                alone, mean_wall_time=0.0, per_run_wall_times=()
            )

    def test_deterministic_summary(self, tiny_instance):
        a = run_experiment(tiny_instance, quick_spec(), runs=5, master_seed=9)
        b = run_experiment(tiny_instance, quick_spec(), runs=5, master_seed=9)
        assert a.per_run_makespans == b.per_run_makespans
        assert a.mean_makespan == b.mean_makespan
        assert a.stddev_makespan == b.stddev_makespan


class TestRelativePerformance:
    def test_reproduces_reported_relative_table(self):
        table = relative_performance(REPORTED_MEAN_MAKESPANS)
        for algorithm, row in REPORTED_RELATIVE.items():
            for instance, reported in row.items():
                assert table.deltas[algorithm][instance] == pytest.approx(reported, abs=5e-3)
            assert table.averages[algorithm] == pytest.approx(
                REPORTED_RELATIVE_AVERAGES[algorithm], abs=1e-3
            )

    def test_specific_reported_cells(self):
        table = relative_performance(REPORTED_MEAN_MAKESPANS)
        assert table.deltas["GA"]["(3,13)"] == pytest.approx(1.1001, abs=1e-6)
        assert table.deltas["Fuzzy PSO"]["(5,100)"] == pytest.approx(-1.4887, abs=1e-6)
        assert table.averages["SA"] == pytest.approx(6.302085, abs=1e-3)

    def test_baseline_row_is_zero(self):
        table = relative_performance(REPORTED_MEAN_MAKESPANS)
        assert all(v == 0.0 for v in table.deltas["Fuzzy DE"].values())
        assert table.averages["Fuzzy DE"] == 0.0

    def test_missing_baseline_row_rejected(self):
        means = {k: v for k, v in REPORTED_MEAN_MAKESPANS.items() if k != "Fuzzy DE"}
        with pytest.raises(ConfigurationError):
            relative_performance(means)

    def test_mismatched_instances_rejected(self):
        means = {
            "Fuzzy DE": {"a": 1.0, "b": 2.0},
            "GA": {"a": 1.5},
        }
        with pytest.raises(ConfigurationError):
            relative_performance(means)


def small_summary(algorithm="Fuzzy DE", instance="inst", runs=3):
    makespans = tuple(float(x) for x in range(1, runs + 1))
    return StatsSummary(
        algorithm=algorithm,
        instance=instance,
        runs=runs,
        mean_makespan=float(np.mean(makespans)),
        stddev_makespan=float(np.std(makespans)),
        mean_wall_time=0.5,
        per_run_makespans=makespans,
        per_run_wall_times=tuple(0.1 for _ in range(runs)),
        per_run_traces=tuple((5.0, 4.0, float(x)) for x in makespans),
    )


class TestExportCsv:
    def test_runs_file_layout(self, tmp_path):
        export_csv([small_summary(runs=100)], tmp_path)
        lines = (tmp_path / RUNS_CSV).read_text().splitlines()
        assert lines[0] == "run_id,algorithm,instance,makespan,wall_time_s"
        assert len(lines) == 101

    def test_traces_file_layout(self, tmp_path):
        export_csv([small_summary(runs=2)], tmp_path)
        lines = (tmp_path / TRACES_CSV).read_text().splitlines()
        assert lines[0] == "algorithm,instance,generation,best_makespan"
        assert len(lines) == 1 + 2 * 3

    def test_traces_non_increasing_within_each_run(self, tiny_instance, tmp_path):
        summary = run_experiment(tiny_instance, quick_spec(), runs=3, master_seed=0)
        export_csv([summary], tmp_path)
        with open(tmp_path / TRACES_CSV) as handle:
            rows = list(csv.DictReader(handle))
        previous = None
        for row in rows:
            value = float(row["best_makespan"])
            if int(row["generation"]) > 0:
                assert value <= previous
            previous = value

    def test_empty_results_rejected_without_files(self, tmp_path):
        target = tmp_path / "out"
        with pytest.raises(ConfigurationError):
            export_csv([], target)
        assert not target.exists()

    def test_newlines_are_plain_lf(self, tmp_path):
        export_csv([small_summary()], tmp_path)
        raw = (tmp_path / RUNS_CSV).read_bytes()
        assert b"\r" not in raw


class TestWorkers:
    def test_explicit_value(self):
        assert default_workers({"GRIDSCHED_THREADS": "3"}) == 3

    def test_zero_means_auto(self):
        assert default_workers({"GRIDSCHED_THREADS": "0"}) >= 1

    def test_unset_means_auto(self):
        assert default_workers({}) >= 1

    def test_auto_counts_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(benchstats.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(benchstats.os, "cpu_count", lambda: 8)
        assert default_workers({}) == 1

    def test_auto_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(benchstats.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(benchstats.os, "cpu_count", lambda: 8)
        assert default_workers({}) == 8

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            default_workers({"GRIDSCHED_THREADS": "many"})


class TestTables:
    def test_stat_table_contains_display_names(self, tiny_instance):
        summaries = [
            run_experiment(tiny_instance, quick_spec(), 2, 0, instance_name="tiny"),
            run_experiment(
                tiny_instance,
                SolverSpec("sa", SAConfig(initial_temperature=5, cooling_rate=0.5,
                                          steps_per_temperature=5, min_temperature=1.0)),
                2,
                0,
                instance_name="tiny",
            ),
        ]
        text = benchstats.format_report(summaries, {"tiny": "(2,6)"})
        assert "Fuzzy DE" in text and "SA" in text and "(2,6)" in text

    def test_relative_table_renders_average_column(self):
        summaries = [
            replace(small_summary(algorithm, instance), mean_makespan=mean)
            for algorithm, row in REPORTED_MEAN_MAKESPANS.items()
            for instance, mean in row.items()
        ]
        text = benchstats.format_report(summaries).split("Relative performance vs Fuzzy DE\n")[1]
        lines = text.splitlines()
        assert lines[0].endswith("Average")
        assert "1.10010" in next(line for line in lines if line.startswith("GA "))
        assert "Fuzzy DE" in text

    def test_missing_cell_rejected_before_any_table(self, tiny_instance, small_instance):
        ga = SolverSpec("ga", GAConfig(population_size=4, max_iterations=3))
        cells = [
            (tiny_instance, quick_spec(), "a"),
            (small_instance, quick_spec(), "b"),
            (tiny_instance, ga, "a"),
        ]
        summaries = run_experiments(cells, runs=1, master_seed=0)
        with pytest.raises(ConfigurationError, match=r"^row 'GA' covers \['a'\], expected \['a', 'b'\]$"):
            benchstats.format_report(summaries)
