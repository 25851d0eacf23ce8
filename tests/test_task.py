import math
from dataclasses import replace

import numpy as np
import pytest

from potplan.generator import random_task
from potplan.task import (NotApplicableError, SasParseError, StateSpaceTooLargeError,
                          SuccessorGenerator, Task, TransitionSystem, UnsupportedFeatureError,
                          build_transition_system, exact_goal_distances,
                          is_applicable, parse_sas, serialize_sas, state_index,
                          successor)

from conftest import make_mixed_preconditions, make_toy1
from reference_builders import (complete_graph, iter_states, reference_goal_distances,
                                reference_successors, reference_transitions)

TOY1_SAS = """\
begin_version
3
end_version
begin_metric
1
end_metric
2
begin_variable
X
-1
2
0
1
end_variable
begin_variable
Y
-1
2
0
1
end_variable
0
begin_state
0
0
end_state
begin_goal
2
0 1
1 1
end_goal
2
begin_operator
oX
0
1
0 0 0 1
1
end_operator
begin_operator
oY
0
1
0 1 0 1
1
end_operator
0
"""


def test_parse_toy1_document(toy1):
    task = parse_sas(TOY1_SAS)
    assert task == toy1


def test_parse_rejects_axiom_rule_blocks():
    doc = TOY1_SAS.replace("0\n", "1\nbegin_rule\nend_rule\n", 1)
    with pytest.raises(SasParseError):
        parse_sas(doc)


def test_parse_rejects_nonzero_axiom_count():
    doc = TOY1_SAS[: TOY1_SAS.rstrip().rfind("0")] + "1\n"
    with pytest.raises(UnsupportedFeatureError):
        parse_sas(doc)


def test_parse_rejects_out_of_range_operator_value():
    doc = TOY1_SAS.replace("0 0 0 1", "0 0 0 2")
    with pytest.raises(SasParseError, match="out of range"):
        parse_sas(doc)


def test_parse_rejects_conditional_effects():
    doc = TOY1_SAS.replace("0 0 0 1", "1 0 0 0 1")
    with pytest.raises(UnsupportedFeatureError):
        parse_sas(doc)


def test_parse_reports_line_numbers():
    doc = TOY1_SAS.replace("begin_metric", "begin_wrong")
    with pytest.raises(SasParseError) as info:
        parse_sas(doc)
    assert info.value.line == 4


def test_metric_zero_means_unit_costs():
    doc = TOY1_SAS.replace("begin_metric\n1", "begin_metric\n0")
    doc = doc.replace("0 0 0 1\n1\nend_operator", "0 0 0 1\n7\nend_operator")
    task = parse_sas(doc)
    assert [op.cost for op in task.operators] == [1, 1]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("tnf", [True, False])
def test_round_trip_random_tasks(seed, tnf):
    task = random_task(4, 3, 6, seed, tnf=tnf, solvable=False)
    assert parse_sas(serialize_sas(task)) == task


def test_successor(toy1):
    oX, oY = toy1.operators
    assert successor((0, 0), oX) == (1, 0)
    with pytest.raises(NotApplicableError):
        successor((1, 0), oX)
    with pytest.raises(NotApplicableError):
        successor((0, 1), oY)


def test_transition_system_toy1(toy1):
    ts = build_transition_system(toy1, 10 ** 6)
    assert len(ts.states) == 4
    by_state = {tuple(s): i for i, s in enumerate(ts.states.tolist())}
    expected = {
        (by_state[(0, 0)], 0, by_state[(1, 0)]),
        (by_state[(0, 0)], 1, by_state[(0, 1)]),
        (by_state[(0, 1)], 0, by_state[(1, 1)]),
        (by_state[(1, 0)], 1, by_state[(1, 1)]),
    }
    assert set(map(tuple, ts.transitions.tolist())) == expected
    assert len(ts.transitions) == 4
    assert ts.goals.tolist() == [by_state[(1, 1)]]


def test_transition_system_cap(toy1):
    with pytest.raises(StateSpaceTooLargeError) as info:
        build_transition_system(toy1, 2)
    assert info.value.state_count == 4


def test_transition_system_k4_reduction_size():
    from potplan.reduction import reduce_3col
    task = reduce_3col(complete_graph(4)).task
    ts = build_transition_system(task, 10 ** 6)
    assert len(ts.states) == 3 ** 4 * 2 == 162


@pytest.mark.parametrize("seed", range(10))
def test_transition_soundness(seed):
    task = random_task(3, 3, 5, seed, solvable=False)
    ts = build_transition_system(task)
    states = list(map(tuple, ts.states.tolist()))
    for src, op_id, dst in ts.transitions.tolist():
        op = task.operators[op_id]
        assert is_applicable(op, states[src])
        assert successor(states[src], op) == states[dst]
    # every applicable pair appears exactly once
    count = sum(1 for s in states for op in task.operators if is_applicable(op, s))
    assert count == len(ts.transitions) == len(set(
        (src, op) for src, op, _ in ts.transitions.tolist()))


GENERATOR_TASKS = {
    **{f"random{seed}": (lambda seed=seed: random_task(4, 3, 6, seed)) for seed in range(12)},
    **{f"non_tnf{seed}": (lambda seed=seed: random_task(4, 3, 6, seed, tnf=False,
                                                          solvable=False))
       for seed in range(6)},
    "toy1": make_toy1,
    "mixed_preconditions": make_mixed_preconditions,
}


@pytest.mark.parametrize("name", sorted(GENERATOR_TASKS))
def test_successor_generator_matches_operator_scan(name):
    task = GENERATOR_TASKS[name]()
    doms = task.domain_sizes
    successors = SuccessorGenerator(task)
    state_dependent = 0
    for state in iter_states(doms):
        applicable = successors.applicable(state)
        applied = [(op_id, tuple(dict(successors.effect[op_id]).get(var, val)
                                 for var, val in enumerate(state)), successors.cost[op_id])
                   for op_id in applicable]
        assert applied == reference_successors(task, state)
        # a successor's index is the state's plus the operator's shift and
        # the terms of its effects without precondition
        index = state_index(state, doms)
        for op_id in applicable:
            free = successors.free[op_id]
            moved = index + successors.shift[op_id] + sum(
                (val - state[var]) * stride for var, val, stride in free)
            assert moved == state_index(successor(state, task.operators[op_id]), doms)
            state_dependent += len(free)
    # outside transition normal form some effects have no precondition
    assert (state_dependent > 0) == (name.startswith("non_tnf") or name == "mixed_preconditions")
    transitions = build_transition_system(task).transitions.tolist()
    assert list(map(tuple, transitions)) == reference_transitions(task)


def test_transition_system_without_variables():
    """A task without variables has one state, the empty one, and it is a goal."""
    ts = build_transition_system(Task([], [], (), {}))
    assert ts.states.shape == (1, 0)
    assert ts.transitions.shape == (0, 3)
    assert ts.goals.tolist() == [0] and ts.initial == 0
    assert exact_goal_distances(ts).tolist() == [0.0]


def test_goal_distances_toy1(toy1):
    ts = build_transition_system(toy1)
    dist = exact_goal_distances(ts)
    by_state = {tuple(s): i for i, s in enumerate(ts.states.tolist())}
    assert dist[by_state[(0, 0)]] == 2
    assert dist[by_state[(1, 0)]] == 1
    assert dist[by_state[(0, 1)]] == 1
    assert dist[by_state[(1, 1)]] == 0


def test_goal_distances_zero_costs(toy1):
    ts = build_transition_system(toy1)
    dist = exact_goal_distances(replace(ts, operator_costs=np.zeros_like(ts.operator_costs)))
    assert all(d == 0.0 for d in dist)


def test_goal_distances_parallel_and_zero_cost_transitions():
    """Of parallel transitions only the cheapest counts (they are not summed)
    and zero-cost transitions are edges like any other."""
    transitions = np.array([[0, 0, 1], [0, 1, 1], [0, 2, 1], [1, 3, 2], [1, 4, 3],
                            [2, 3, 2], [2, 3, 3], [4, 5, 4]])
    operator_costs = np.array([5.0, 2.0, 7.0, 0.0, 4.0, 1.0])
    ts = TransitionSystem(np.arange(5)[:, None], transitions, 0, np.array([3]),
                          operator_costs, (5,))
    expected = [2.0, 0.0, 0.0, 0.0, math.inf]
    assert exact_goal_distances(ts).tolist() == expected
    costs = operator_costs[transitions[:, 1]].tolist()
    assert reference_goal_distances(5, transitions.tolist(), [3], costs) == expected


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("tnf", [True, False])
def test_goal_distances_match_reference(seed, tnf):
    """Dijkstra under the operator costs.  Costs 0..2 make zero-cost
    transitions common; outside TNF, operators with the same effect give
    parallel transitions of different cost."""
    task = random_task(4, 3, 8, seed, tnf=tnf, solvable=False, max_cost=2)
    ts = build_transition_system(task)
    costs = ts.operator_costs[ts.transitions[:, 1]]
    assert exact_goal_distances(ts).tolist() == reference_goal_distances(
        len(ts.states), ts.transitions.tolist(), ts.goals.tolist(), costs.tolist())


def test_goal_distances_negative_cycle():
    """The reference that checks extracted cost functions maps every state
    that reaches a negative cycle from which a goal is reachable to -inf."""
    transitions = [[0, 0, 1], [1, 0, 0], [1, 1, 1]]  # a->b, b->a, b->goal loop
    dist = reference_goal_distances(2, transitions, [1], [-1.0, -1.0, 0.0])
    assert dist[0] == -math.inf and dist[1] == -math.inf


def test_goal_distances_unreachable():
    ts = TransitionSystem(
        states=np.array([[0], [1], [2]]),
        transitions=np.array([[0, 0, 1]]),
        initial=0,
        goals=np.array([1]),
        operator_costs=np.array([1.0]),
        domain_sizes=(3,),
    )
    dist = exact_goal_distances(ts)
    assert dist.tolist() == [1.0, 0.0, math.inf]


@pytest.mark.parametrize("seed", range(10))
def test_bellman_condition(seed):
    task = random_task(4, 3, 6, seed, solvable=False)
    ts = build_transition_system(task)
    dist = exact_goal_distances(ts)
    outgoing = {}
    for src, op_id, dst in ts.transitions.tolist():
        outgoing.setdefault(src, []).append(ts.operator_costs[op_id] + dist[dst])
    for si, d in enumerate(dist):
        if si in ts.goals:
            assert d == 0.0
            continue
        for bound in outgoing.get(si, []):
            assert d <= bound + 1e-9
        if math.isfinite(d):
            assert any(abs(d - bound) <= 1e-9 for bound in outgoing[si])
