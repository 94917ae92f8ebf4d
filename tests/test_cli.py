import csv
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from gridsched import benchstats, datasets
from gridsched.benchstats import make_spec, run_solver, write_traces
from gridsched.cli import main
from gridsched.datasets import GeneratorSpec, generate_instance, load_instance, save_instance
from gridsched.model import GridInstance, brute_force_optimum


@pytest.fixture
def instance_file(tmp_path):
    inst = generate_instance(GeneratorSpec(2, 6, seed=42))
    path = tmp_path / "r2_j6.json"
    save_instance(inst, path)
    return path


class DiesInWorker(GridInstance):
    """An instance whose unpickling, as a pool worker does with its task, ends that process."""

    def __reduce__(self):
        return (os._exit, (1,))


class TestGen:
    def test_fixture_naming_contract(self, tmp_path, capsys):
        assert main(["gen", "--fixtures", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"r3_j13.json", "r5_j100.json", "r8_j60.json", "r10_j50.json", "manifest.json"}

    def test_generation_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["gen", "-n", "5", "-m", "100", "--seed", "42", "--out", str(out_a)]) == 0
        assert main(["gen", "-n", "5", "-m", "100", "--seed", "42", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_resources_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "-n", "0", "-m", "5", "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_counts_is_usage_error(self):
        assert main(["gen"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "no_such_dir" / "x.json"
        assert main(["gen", "-n", "2", "-m", "2", "--out", str(target)]) == 1


class TestSolve:
    def test_deterministic_stdout(self, instance_file, capsys):
        args = ["solve", "--algo", "fuzzy-de", "--seed", "1", "--np", "8", "--iters", "30",
                str(instance_file)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("makespan ")

    def test_single_resource_prints_forced_makespan(self, tmp_path, capsys):
        inst = generate_instance(GeneratorSpec(1, 5, seed=3))
        path = tmp_path / "r1_j5.json"
        save_instance(inst, path)
        expected = float(inst.lengths.sum() / inst.speeds[0])
        assert main(["solve", "--algo", "de", "--seed", "0", "--np", "6", "--iters", "5",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert f"makespan {expected!r}" in out

    def test_missing_instance_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "ghost.json")]) == 1

    def test_malformed_instance_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    def test_non_utf8_instance_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{\x00}\x00')
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"gridsched: {path}: ")

    def test_trace_file_written(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--algo", "ga", "--seed", "2", "--np", "8", "--iters", "12",
                     "--trace", str(trace), str(instance_file)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "algorithm,instance,generation,best_makespan"
        assert len(lines) == 1 + 13
        spec = make_spec("ga", np=8, iters=12)
        result = run_solver(load_instance(instance_file), spec, 2)
        assert lines[1] == f"GA,r2_j6,0,{result.trace[0]!r}"
        expected = tmp_path / "expected.csv"
        write_traces(expected, [(spec.display, "r2_j6", result.trace)])
        assert trace.read_bytes() == expected.read_bytes()

    def test_unknown_algorithm_is_usage_error(self, instance_file):
        assert main(["solve", "--algo", "tabu", str(instance_file)]) == 2

    def test_one_particle_swarm_is_usage_error(self, instance_file, capsys):
        assert main(["solve", "--algo", "fuzzy-pso", "--np", "1", str(instance_file)]) == 2
        assert "population_size must be >= 2" in capsys.readouterr().err


class TestBench:
    def test_cross_product_row_count(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["bench", "--fixtures", "--algos", "fuzzy-de,de", "--runs", "5",
                   "--seed", "9", "--np", "6", "--iters", "10", "--out", str(out)])
        assert rc == 0
        with open(out / "runs.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 4 * 5

    def test_relative_table_baseline_row_is_zero(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["bench", "--fixtures", "--algos", "fuzzy-de,sa", "--runs", "2",
                   "--seed", "1", "--np", "6", "--iters", "5", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        relative_lines = stdout.split("Relative performance")[1].splitlines()
        fuzzy_row = next(line for line in relative_lines if line.startswith("Fuzzy DE"))
        cells = fuzzy_row.split()[2:]
        assert all(float(cell) == 0.0 for cell in cells)

    @pytest.mark.parametrize("algos", ["ga", "fuzzy-de"])
    def test_single_algorithm_skips_the_relative_table(self, instance_file, tmp_path, capsys, algos):
        assert main(["bench", str(instance_file), "--algos", algos, "--runs", "1",
                     "--np", "6", "--iters", "2", "--out", str(tmp_path / "results")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.endswith("\n\n(relative table skipped: needs a Fuzzy DE row "
                               "and at least one other algorithm)\n")
        assert "Relative performance" not in stdout

    def test_dead_worker_raises_and_writes_no_csv(self, instance_file, tmp_path, monkeypatch):
        inst = load_instance(instance_file)
        monkeypatch.setattr(datasets, "fixture_suite",
                            lambda: {"dies": DiesInWorker(inst.resources, inst.jobs)})
        monkeypatch.setenv("GRIDSCHED_THREADS", "2")
        out = tmp_path / "results"
        with pytest.raises(BrokenProcessPool):
            main(["bench", "--fixtures", "--algos", "ga", "--runs", "2", "--iters", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_no_instances_is_usage_error(self):
        assert main(["bench", "--algos", "fuzzy-de", "--runs", "1"]) == 2

    def test_explicit_instance_path(self, instance_file, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["bench", str(instance_file), "--algos", "fuzzy-de", "--runs", "2",
                   "--seed", "0", "--np", "6", "--iters", "5", "--out", str(out)])
        assert rc == 0
        with open(out / "runs.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["instance"] for row in rows} == {"r2_j6"}

    def test_repeated_instance_name_is_usage_error(self, instance_file, tmp_path, capsys):
        same_stem = tmp_path / "other" / instance_file.name
        same_stem.parent.mkdir()
        same_stem.write_bytes(instance_file.read_bytes())
        fixture_stem = tmp_path / "r3_j13.json"
        fixture_stem.write_bytes(instance_file.read_bytes())
        out = tmp_path / "results"
        assert main(["bench", str(instance_file), str(same_stem), "--algos", "fuzzy-de,ga",
                     "--runs", "2", "--out", str(out)]) == 2
        assert main(["bench", "--fixtures", str(fixture_stem), "--algos", "ga",
                     "--runs", "2", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["bench", "--fixtures", "--algos", "fuzzy-de,tabu", "--runs", "2",
                     "--out", str(out)]) == 2
        assert "unknown algorithm 'tabu'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_algorithm_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["bench", "--fixtures", "--algos", "ga,ga", "--runs", "2",
                     "--iters", "2", "--out", str(out)]) == 2
        assert "--algos names 'ga' twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed, runs", [("-1", "2"), ("18446744073709551614", "3")])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, seed, runs):
        out = tmp_path / "results"
        assert main(["bench", "--fixtures", "--algos", "ga", "--runs", runs, "--iters", "1",
                     "--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("gridsched: seed must fit")
        assert not (out / "runs.csv").exists()

    def test_one_pool_per_bench_with_the_sequential_output(self, tmp_path, monkeypatch, capsys):
        pools = []

        class CountingPool(benchstats.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(benchstats, "ProcessPoolExecutor", CountingPool)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("GRIDSCHED_THREADS", threads)
            out = tmp_path / threads
            assert main(["bench", "--fixtures", "--algos", "fuzzy-de,ga", "--runs", "3",
                         "--iters", "5", "--out", str(out)]) == 0
            with open(out / "runs.csv") as handle:
                runs = list(csv.DictReader(handle))
            for row in runs:
                del row["wall_time_s"]
            outputs[threads] = (runs, (out / "traces.csv").read_bytes())
        assert pools == [{"max_workers": 2}]
        assert len(outputs["2"][0]) == 2 * 4 * 3
        assert outputs["2"] == outputs["1"]


class TestOracle:
    def test_single_resource(self, tmp_path, capsys):
        inst = generate_instance(GeneratorSpec(1, 4, seed=1))
        path = tmp_path / "r1_j4.json"
        save_instance(inst, path)
        assert main(["oracle", str(path)]) == 0
        out = capsys.readouterr().out
        expected = float(inst.lengths.sum() / inst.speeds[0])
        assert f"makespan {expected!r}" in out

    def test_matches_library_oracle(self, instance_file, capsys):
        inst = generate_instance(GeneratorSpec(2, 6, seed=42))
        assignment, makespan = brute_force_optimum(inst)
        assert main(["oracle", str(instance_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"makespan {makespan!r}"
        printed = [tuple(map(int, line.split())) for line in out[1:]]
        assert [pair[1] for pair in printed] == list(assignment.assignee)

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        inst = generate_instance(GeneratorSpec(10, 50, seed=104))
        path = tmp_path / "big.json"
        save_instance(inst, path)
        assert main(["oracle", str(path)]) == 3

    def test_budget_flag_respected(self, instance_file):
        assert main(["oracle", "--budget", "10", str(instance_file)]) == 3

    def test_negative_budget_is_a_usage_error(self, instance_file):
        assert main(["oracle", "--budget", "-1", str(instance_file)]) == 2


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2
