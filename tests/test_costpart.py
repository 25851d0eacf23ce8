import math
import random

import pytest

from potplan.costpart import AbstractionError, all_patterns, build_ocp_lp, build_tcp_lp, project
from potplan.direct2d import solve_for_state
from potplan.features import evaluate_potential
from potplan.generator import random_task
from potplan.lp import solve
from potplan.search import PotentialHeuristic, validate
from potplan.task import build_transition_system, exact_goal_distances, state_index

from reference_builders import (abstract_transitions, extract_cost_functions,
                                features_of_abstractions, reference_goal_distances,
                                shift_weights_to_goal, solution_values,
                                solve_exhaustive_for_state, validate_partition)


def test_project_single_variable(toy1):
    ts = build_transition_system(toy1)
    proj = project(ts, (0,))
    assert proj.size == 2
    # one abstract transition per concrete transition, in the same order
    labels = [(src, op, dst) for src, op, dst in abstract_transitions(proj, ts).tolist()]
    x_moves = [(s, o, d) for s, o, d in labels if o == 0]
    y_moves = [(s, o, d) for s, o, d in labels if o == 1]
    assert x_moves == [(0, 0, 1), (0, 0, 1)]  # two concrete sources collapse
    assert all(s == d for s, _, d in y_moves)  # self-loops


def test_project_full_pattern_is_isomorphic(toy1):
    ts = build_transition_system(toy1)
    proj = project(ts, (0, 1))
    assert proj.size == len(ts.states)
    assert abstract_transitions(proj, ts).tolist() == ts.transitions.tolist()
    assert proj.goal in {i for i in range(4)} and proj.initial == ts.initial


def test_project_empty_pattern(toy1):
    ts = build_transition_system(toy1)
    proj = project(ts, ())
    assert proj.size == 1
    assert all(s == d == 0 for s, _, d in abstract_transitions(proj, ts).tolist())


def test_tcp_all_small_projections(toy1):
    ts = build_transition_system(toy1)
    built = build_tcp_lp(ts, all_patterns(2), tuple(ts.states[ts.initial].tolist()))
    assert solve(built.model).require_optimal().objective_value == pytest.approx(2.0)


def test_tcp_single_projection(toy1):
    ts = build_transition_system(toy1)
    built = build_tcp_lp(ts, [(0,)], tuple(ts.states[ts.initial].tolist()))
    assert solve(built.model).require_optimal().objective_value == pytest.approx(1.0)


def test_tcp_at_goal_state(toy1):
    ts = build_transition_system(toy1)
    goal_state = tuple(ts.states[ts.goals[0]].tolist())
    built = build_tcp_lp(ts, all_patterns(2), goal_state)
    assert solve(built.model).require_optimal().objective_value == pytest.approx(0.0)


def test_ocp_values(toy1):
    ts = build_transition_system(toy1)
    s0 = tuple(ts.states[ts.initial].tolist())
    assert solve(build_ocp_lp(ts, all_patterns(2), s0).model) \
        .require_optimal().objective_value == pytest.approx(2.0)
    assert solve(build_ocp_lp(ts, [(0,), (1,)], s0).model) \
        .require_optimal().objective_value == pytest.approx(2.0)
    goal_state = tuple(ts.states[ts.goals[0]].tolist())
    assert solve(build_ocp_lp(ts, all_patterns(2), goal_state).model) \
        .require_optimal().objective_value == pytest.approx(0.0)


def test_validate_partition(toy1):
    ts = build_transition_system(toy1)
    zero = [0.0] * len(ts.transitions)
    assert validate_partition(ts, [zero]) == (True, None)
    full = ts.operator_costs[ts.transitions[:, 1]].tolist()
    ok, first = validate_partition(ts, [full, full])
    assert not ok and first == 0


def test_validate_partition_of_solved_tcp(toy1):
    ts = build_transition_system(toy1)
    built = build_tcp_lp(ts, all_patterns(2), tuple(ts.states[ts.initial].tolist()))
    solution = solve(built.model).require_optimal()
    cost_functions = extract_cost_functions(built, ts, solution)
    ok, _ = validate_partition(ts, cost_functions)
    assert ok


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build, cost", [
    (build_tcp_lp, lambda x, ai, asrc, op, adst: x[f"h_a{ai}_s{asrc}"] - x[f"h_a{ai}_s{adst}"]),
    (build_ocp_lp, lambda x, ai, asrc, op, adst: x[f"c_a{ai}_o{op}"])], ids=["tcp", "ocp"])
def test_extract_cost_functions(seed, build, cost):
    """Each abstraction's cost of a transition is the least feasible one,
    h(abstract source) - h(abstract target) (TCP, which has no cost
    unknowns), or the value of its operator's cost unknown (OCP)."""
    task = random_task(3, 3, 5, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    built = build(ts, patterns, task.initial_state)
    solution = solve(built.model).require_optimal()
    cost_functions = extract_cost_functions(built, ts, solution)
    values = solution_values(built.model, solution)
    assert cost_functions.tolist() == [
        [cost(values, ai, *move) for move in abstract_transitions(project(ts, p), ts).tolist()]
        for ai, p in enumerate(patterns)]
    assert validate_partition(ts, cost_functions) == (True, None)


def test_features_of_abstractions(toy1):
    ts = build_transition_system(toy1)
    fs = features_of_abstractions(ts, [(0,)])
    assert {f.facts for f in fs} == {((0, 0),), ((0, 1),)}
    fs2 = features_of_abstractions(ts, [(0,), (0, 1)])
    assert len(fs2) == 6
    with pytest.raises(AbstractionError):
        features_of_abstractions(ts, [()])


def random_finite_states(ts, count, seed):
    distances = exact_goal_distances(ts)
    finite = [i for i, d in enumerate(distances) if d < math.inf]
    rng = random.Random(f"states:{seed}")
    return [tuple(ts.states[finite[rng.randrange(len(finite))]].tolist()) for _ in range(count)]


@pytest.mark.parametrize("seed", range(8))
def test_potential_equals_tcp(seed):
    """Maximal potential over abstraction features equals the optimal
    transition partitioning value, state by state."""
    task = random_task(3, 3, 5, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    fs = features_of_abstractions(ts, patterns)
    for state in [task.initial_state] + random_finite_states(ts, 2, seed):
        pot = solve_for_state(task, fs, state).value
        tcp = solve(build_tcp_lp(ts, patterns, state).model) \
            .require_optimal().objective_value
        assert pot == pytest.approx(tcp, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_tcp_dominates_ocp(seed):
    task = random_task(3, 3, 5, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    for state in [task.initial_state] + random_finite_states(ts, 2, seed):
        tcp = solve(build_tcp_lp(ts, patterns, state).model) \
            .require_optimal().objective_value
        ocp = solve(build_ocp_lp(ts, patterns, state).model) \
            .require_optimal().objective_value
        assert tcp >= ocp - 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_partitioned_sum_is_admissible(seed):
    """Summed abstract goal distances under the extracted signed costs stay
    below the true goal distance and reach the LP optimum at the solved
    state."""
    task = random_task(3, 3, 5, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    state = task.initial_state
    built = build_tcp_lp(ts, patterns, state)
    solution = solve(built.model).require_optimal()
    cost_functions = extract_cost_functions(built, ts, solution)
    distances = exact_goal_distances(ts)

    per_state_sums = [0.0] * len(ts.states)
    for proj, costs in zip([project(ts, p) for p in patterns], cost_functions):
        abstract = reference_goal_distances(proj.size, abstract_transitions(proj, ts).tolist(),
                                            [proj.goal], costs.tolist())
        assert all(d > -math.inf for d in abstract)
        for si in range(len(ts.states)):
            per_state_sums[si] += abstract[proj.state_map[si]]
    for si, total in enumerate(per_state_sums):
        assert total <= distances[si] + 1e-6
    at_solved = per_state_sums[state_index(state, ts.domain_sizes)]
    assert at_solved >= solution.objective_value - 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_shift_normalization(seed):
    task = random_task(3, 3, 5, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    fs = features_of_abstractions(ts, patterns)
    result = solve_for_state(task, fs, task.initial_state)
    shifted = shift_weights_to_goal(ts, patterns, fs, result.weights)
    # still feasible and no worse at the optimized state
    report = validate(task, PotentialHeuristic(task, fs, shifted))
    assert report.goal_aware and report.consistent and report.admissible
    before = evaluate_potential(fs, result.weights, task.initial_state)
    after = evaluate_potential(fs, shifted, task.initial_state)
    assert after >= before - 1e-9
    goal_state = tuple(ts.states[ts.goals[0]].tolist())
    assert evaluate_potential(fs, shifted, goal_state) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_tcp_equals_potential_and_dominates_ocp_on_larger_tasks(seed):
    """On tasks of 144 to 2,304 states, the TCP optimum (whose first run is
    primal simplex from the origin) equals the maximal potential over
    abstraction features in the dimension-2 and the exhaustive model (both
    dual first runs), and OCP stays below it, state by state."""
    task = random_task(6, 4, 16, seed)
    ts = build_transition_system(task)
    patterns = all_patterns(len(task.variables))
    fs = features_of_abstractions(ts, patterns)
    for state in [task.initial_state] + random_finite_states(ts, 2, seed):
        model = build_tcp_lp(ts, patterns, state).model
        tcp = solve(model).require_optimal().objective_value
        assert model._session.highs.getOptionValue("simplex_strategy")[1] == 4  # primal
        ocp = solve(build_ocp_lp(ts, patterns, state).model).require_optimal().objective_value
        assert solve_for_state(task, fs, state).value == pytest.approx(tcp, abs=1e-6)
        assert solve_exhaustive_for_state(task, fs, state).value == pytest.approx(tcp, abs=1e-6)
        assert ocp <= tcp + 1e-6
