import math
import random

import pytest

from potplan.direct2d import solve_for_state
from potplan.features import evaluate_potential, generate_features
from potplan.generator import random_task
from potplan.reduction import reduce_3col
from potplan.search import NoPlanError, PotentialHeuristic, astar, blind, validate
from potplan.task import Task, build_transition_system, exact_goal_distances

from conftest import make_mixed_preconditions, make_toy1
from reference_builders import complete_graph, reference_astar, reference_open_key


def optimal_heuristic(task, dim):
    fs = generate_features(task, dim)
    weights = solve_for_state(task, fs, task.initial_state).weights
    return PotentialHeuristic(task, fs, weights)


def test_astar_with_potential(toy1):
    result = astar(toy1, optimal_heuristic(toy1, 1))
    assert result.cost == 2.0
    assert result.expansions_before_last_f_layer <= 2
    assert [toy1.operators[i].name for i in result.plan] in (
        ["oX", "oY"], ["oY", "oX"])


def test_astar_blind(toy1):
    result = astar(toy1, blind)
    assert result.cost == 2.0
    assert result.expansions >= result.expansions_before_last_f_layer


def test_astar_no_plan(toy1):
    task = Task(toy1.variables, [toy1.operators[0]], toy1.initial_state, toy1.goal)
    with pytest.raises(NoPlanError):
        astar(task, blind)


def test_tiebreak_policy():
    """The reference A*'s open-list order, which `astar` has to reproduce:
    lowest f, then lowest h, then first in first out."""
    assert reference_open_key(5.0, 1.0, 7) == (5.0, 1.0, 7)
    assert reference_open_key(5.0, 1.0, 0) < reference_open_key(5.0, 2.0, 1)
    assert reference_open_key(5.0, 1.0, 0) < reference_open_key(5.0, 1.0, 1)
    assert reference_open_key(4.0, 9.0, 9) < reference_open_key(5.0, 0.0, 0)


def test_astar_is_deterministic(toy1):
    runs = [astar(toy1, optimal_heuristic(toy1, 1)) for _ in range(3)]
    assert len({tuple(r.plan) for r in runs}) == 1
    assert len({r.expansions for r in runs}) == 1
    assert len({r.expansions_before_last_f_layer for r in runs}) == 1


def test_validate_optimal_weights(toy1):
    report = validate(toy1, optimal_heuristic(toy1, 1))
    assert report.goal_aware and report.consistent and report.admissible
    assert report.counterexample is None


def test_validate_k3_reduction():
    red = reduce_3col(complete_graph(3))
    report = validate(red.task, lambda s: evaluate_potential(red.features, red.weights, s))
    assert not report.consistent
    state, op_id = report.counterexample, report.operator
    after = tuple(red.task.operators[op_id].eff.get(v, state[v])
                  for v in range(len(state)))
    # the violating transition switches into a proper coloring
    assert state[red.master_var] == 0 and after[red.master_var] == 1
    assert all(after[u] != after[v] for u, v in red.graph.edges)


def test_validate_k4_reduction():
    red = reduce_3col(complete_graph(4))
    report = validate(red.task, lambda s: evaluate_potential(red.features, red.weights, s))
    assert report.consistent


def test_validate_inadmissible():
    task = random_task(3, 2, 4, 1)
    report = validate(task, lambda s: 100.0)
    assert not report.admissible


def test_validate_counts_nan_as_violation():
    """A NaN heuristic value fails every check it enters."""
    report = validate(random_task(3, 2, 4, 1), lambda s: math.nan)
    assert not (report.goal_aware or report.consistent or report.admissible)


def test_potential_heuristic_indexing(toy1):
    fs = generate_features(toy1, 2)
    weights = solve_for_state(toy1, fs, toy1.initial_state).weights
    from potplan.features import evaluate_potential
    fast = PotentialHeuristic(toy1, fs, weights)
    ts = build_transition_system(toy1)
    for s in map(tuple, ts.states.tolist()):
        assert fast(s) == pytest.approx(evaluate_potential(fs, weights, s), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_astar_matches_dijkstra(seed):
    task = random_task(4, 3, 6, seed)
    ts = build_transition_system(task)
    expected = exact_goal_distances(ts)[ts.initial]
    for heuristic in (blind, optimal_heuristic(task, 1), optimal_heuristic(task, 2)):
        assert astar(task, heuristic).cost == pytest.approx(expected)


@pytest.mark.parametrize("seed", range(8))
def test_lp_weights_always_validate(seed):
    task = random_task(4, 3, 6, seed)
    for dim in (1, 2):
        fs = generate_features(task, dim)
        weights = solve_for_state(task, fs, task.initial_state).weights
        report = validate(task, PotentialHeuristic(task, fs, weights))
        assert report.goal_aware and report.consistent and report.admissible


def test_expansion_trend_aggregate():
    totals = {"blind": 0, "pot1": 0, "pot2": 0}
    for seed in range(15):
        task = random_task(4, 3, 6, seed)
        totals["blind"] += astar(task, blind).expansions_before_last_f_layer
        totals["pot1"] += astar(
            task, optimal_heuristic(task, 1)).expansions_before_last_f_layer
        totals["pot2"] += astar(
            task, optimal_heuristic(task, 2)).expansions_before_last_f_layer
    assert totals["pot2"] <= totals["pot1"] <= totals["blind"]


def _search_summary(result):
    return (result.plan, result.cost, result.expansions,
            result.expansions_before_last_f_layer, result.evaluated)


@pytest.mark.parametrize("name", [f"random{seed}" for seed in range(12)] + ["toy1"])
def test_astar_matches_operator_scan(name):
    task = make_toy1() if name == "toy1" else random_task(4, 3, 6, int(name[6:]))
    for heuristic in (blind, optimal_heuristic(task, 1), optimal_heuristic(task, 2)):
        assert _search_summary(astar(task, heuristic)) == \
            _search_summary(reference_astar(task, heuristic))


def test_astar_matches_operator_scan_mixed_preconditions():
    task = make_mixed_preconditions()

    def goal_count(state):
        return float(sum(state[var] != val for var, val in task.goal.items()))

    for heuristic in (blind, goal_count):
        assert _search_summary(astar(task, heuristic)) == \
            _search_summary(reference_astar(task, heuristic))


def _same_search(task, heuristic, reopened=None):
    """astar and reference_astar agree on the whole summary, or both find
    no plan."""
    try:
        expected = _search_summary(reference_astar(task, heuristic, reopened))
    except NoPlanError:
        with pytest.raises(NoPlanError):
            astar(task, heuristic)
        return
    assert _search_summary(astar(task, heuristic)) == expected


@pytest.mark.parametrize("seed", [0, 3, 4, 5, 6, 7])
def test_astar_matches_operator_scan_when_reopening(seed):
    """A seeded random heuristic, inconsistent, under which some state's g
    improves after it was generated (its values and h already known)."""
    task = random_task(6, 3, 20, seed)

    def noisy(state):
        return random.Random(f"{seed}:{state}").uniform(0, 30)

    reopened = []
    _same_search(task, noisy, reopened)
    assert reopened


@pytest.mark.parametrize("seed", range(6))
def test_astar_matches_operator_scan_outside_tnf(seed):
    task = random_task(4, 3, 6, seed, tnf=False, solvable=False)

    def goal_count(state):
        return float(sum(state[var] != val for var, val in task.goal.items()))

    for heuristic in (blind, goal_count):
        _same_search(task, heuristic)


@pytest.mark.parametrize("seed", range(4))
def test_blind_astar_matches_operator_scan_on_long_searches(seed):
    """712 to 5,843 expansions; with h = 0 every tie in g is broken
    first-in first-out, so the order of generation decides the expansions."""
    _same_search(random_task(9, 4, 60, seed), blind)


@pytest.mark.parametrize("seed", range(4))
def test_astar_matches_operator_scan_on_long_searches(seed):
    """pot1 and pot2 on the tasks of the blind test above, whose f-ties
    are broken by h, then first-in first-out."""
    task = random_task(9, 4, 60, seed)
    for dim in (1, 2):
        _same_search(task, optimal_heuristic(task, dim))
