"""The benchmark's checkers reject corrupted results and accept real ones.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, Problem  # noqa: E402
from gridsched import benchstats, model  # noqa: E402
from gridsched.datasets import GeneratorSpec, generate_instance  # noqa: E402
from tracing import Tracer  # noqa: E402


def unwindowed(speeds, lengths) -> Problem:
    n = len(speeds)
    return Problem(tuple(speeds), (0.0,) * n, (math.inf,) * n, tuple(lengths))


# Speeds 2 and 1, lengths 6, 3, 3.  Preemptive bound: max(12 / 3, 6 / 2) = 4.
# Best schedule by hand: {6, 3} on the fast resource (4.5), {3} on the slow one (3).
SMALL = unwindowed((2.0, 1.0), (6.0, 3.0, 3.0))
SMALL_OPTIMUM = ((0, 0, 1), 4.5)


def test_lower_bound_by_hand():
    assert checks.lower_bound(SMALL) == 4.0
    # One huge job: the k = 1 term, 20 / 4, beats total work 22 / 6 and k = 2's 21 / 5.
    assert checks.lower_bound(unwindowed((4.0, 1.0, 1.0), (20.0, 1.0, 1.0))) == 5.0
    # A single resource: the bound is the total work, and no k < n term exists.
    assert checks.lower_bound(unwindowed((2.0,), (3.0, 5.0))) == 4.0


def test_lower_bound_refuses_late_starts():
    with pytest.raises(ValueError):
        checks.lower_bound(Problem((1.0,), (1.0,), (math.inf,), (1.0,)))


def test_exhaustive_minimum_and_lpt_by_hand():
    assert checks.exhaustive_penalised_minimum(SMALL) == 4.5
    assert checks.lpt_makespan(SMALL) == 4.5


def test_assignment_check_accepts_the_right_makespan():
    checks.check_assignment(SMALL, (0, 0, 1), 4.5)


def test_assignment_check_rejects_a_wrong_makespan():
    with pytest.raises(CheckFailed, match="scores"):
        checks.check_assignment(SMALL, (0, 0, 1), 4.0)


@pytest.mark.parametrize("assignee", [(0, 0, 2), (0, -1, 1), (0, 0), (0, 0, 1.0)])
def test_assignment_check_rejects_a_bad_index(assignee):
    with pytest.raises(CheckFailed):
        checks.check_assignment(SMALL, assignee, 4.5)


def test_penalised_fitness_adds_ten_times_the_overshoot():
    windowed = Problem((1.0, 1.0), (0.0, 1.0), (2.0, math.inf), (3.0, 1.0))
    # Resource 0 ends at 3, one past its window: 3 + 10 x 1.
    assert checks.penalised(windowed, (0, 1)) == 13.0
    assert checks.penalised(windowed, (1, 0)) == 4.0


def test_trace_check():
    checks.check_trace((5.0, 5.0, 4.0), 2, 4.0)
    with pytest.raises(CheckFailed, match="rises"):
        checks.check_trace((5.0, 6.0, 4.0), 2, 4.0)
    with pytest.raises(CheckFailed, match="points"):
        checks.check_trace((5.0, 4.0), 2, 4.0)
    with pytest.raises(CheckFailed, match="ends"):
        checks.check_trace((5.0, 5.0, 4.5), 2, 4.0)


def test_bound_check_rejects_a_value_below_the_bound():
    checks.check_above_bound(4.5, 4.0)
    checks.check_above_bound(4.0, 4.0)
    with pytest.raises(CheckFailed, match="below"):
        checks.check_above_bound(3.9, 4.0)


def test_oracle_check_accepts_the_optimum():
    checks.check_oracle_unwindowed(SMALL, *SMALL_OPTIMUM)


def test_oracle_check_rejects_a_non_optimal_answer():
    # (0, 1, 1) has makespan 6, worse than LPT's 4.5.
    with pytest.raises(CheckFailed, match="LPT"):
        checks.check_oracle_unwindowed(SMALL, (0, 1, 1), 6.0)
    # As good as LPT (13 / 3), but moving the length-1 job to resource 0 gives 4.
    tied = unwindowed((2.0, 3.0), (6.0, 4.0, 1.0, 6.0, 3.0))
    assert checks.lpt_makespan(tied) == 13.0 / 3.0
    with pytest.raises(CheckFailed, match="moving job 2 to 0"):
        checks.check_oracle_unwindowed(tied, (1, 0, 1, 1, 0), 13.0 / 3.0)


def test_oracle_check_rejects_a_value_that_is_not_its_makespan():
    with pytest.raises(CheckFailed, match="makespan"):
        checks.check_oracle_unwindowed(SMALL, (0, 0, 1), 4.2)


def test_windowed_oracle_fault_is_detected():
    # Resource 0 is fast but closes at 2; resource 1 is slow and always open.
    windowed = Problem((4.0, 1.0), (0.0, 0.0), (2.0, math.inf), (6.0, 3.0))
    assert checks.exhaustive_penalised_minimum(windowed) == 3.0
    # Both jobs on the fast resource minimise plain makespan (2.25) but overrun its window.
    assert checks.penalised(windowed, (0, 0)) == 4.75
    assert not checks.is_penalised_optimum(windowed, (0, 0), 2.25, 3.0)
    assert checks.is_penalised_optimum(windowed, (0, 1), 3.0, 3.0)


def test_real_outputs_pass_every_check():
    instance = generate_instance(GeneratorSpec(3, 8, seed=7))
    t = workloads.target("small", instance)
    bound = checks.lower_bound(t.problem)
    for solver, spec in workloads.solver_specs(100).items():
        result = benchstats.run_solver(instance, spec, 0)
        checks.check_assignment(t.problem, result.best_assignment.assignee, result.best_makespan)
        checks.check_trace(result.trace, result.iterations_run, result.best_makespan)
        checks.check_above_bound(result.best_makespan, bound)
    assignment, value = model.brute_force_optimum(instance)
    checks.check_oracle_unwindowed(t.problem, assignment.assignee, value)


def test_tracer_counts_rows_within_the_budget_and_restores_the_library():
    instance = generate_instance(GeneratorSpec(3, 8, seed=7))
    original = model.batch_fitness
    tracer = Tracer()
    with workloads.traced(tracer):
        assert model.batch_fitness is not original
        for solver, spec in workloads.solver_specs(100).items():
            tracer.begin_solve(solver)
            result = benchstats.run_solver(instance, spec, 0)
            tracer.end_solve()
            assert 0 < tracer.solve_rows <= workloads.nominal_rows(spec, result)
            rows = tracer.count("model.batch_fitness.rows", solver)
            assert tracer.count("model.batch_fitness.repeat_rows", solver) < rows
            assert tracer.calls("model.batch_fitness", solver) > 0
    assert model.batch_fitness is original
    assert benchstats.ALGORITHMS["fuzzy-de"].solve.__module__ == "gridsched.fuzzy_de"
    assert not hasattr(benchstats.ALGORITHMS["fuzzy-de"].solve, "__wrapped__")
    solve = tracer.spans[("fuzzy_de.solve", "fuzzy-de")]
    assert 0 < solve.self_s < solve.total_s


def test_scaled_clock_divides_by_the_neighbouring_reference_times(monkeypatch):
    # Reference tasks take 0.02, 0.03, 0.04 s; operations 0.5 and 0.7 s.
    now = [0.0]
    steps = iter([0.02, 0.5, 0.03, 0.7, 0.04])

    def elapse():
        now[0] += next(steps)

    def operation(result):
        elapse()
        return result

    monkeypatch.setattr(refclock.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(refclock, "reference_task", elapse)
    clock = refclock.ScaledClock()

    assert clock.time(lambda: operation("a")) == ("a", pytest.approx(0.5 * refclock.REFERENCE_S / 0.025))
    assert clock.time(lambda: operation("b")) == ("b", pytest.approx(0.7 * refclock.REFERENCE_S / 0.035))
    assert clock.reference_walls == pytest.approx([0.02, 0.03, 0.04])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
