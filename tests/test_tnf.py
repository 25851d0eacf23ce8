import math

import pytest

from potplan.generator import random_task
from potplan.task import (Operator, Task, Variable, build_transition_system,
                          exact_goal_distances, parse_sas, serialize_sas)
from potplan.tnf import FRESH_VALUE_NAME, is_tnf, to_tnf


def optimal_cost(task, cap=200_000):
    ts = build_transition_system(task, cap)
    return exact_goal_distances(ts)[ts.initial]


def test_is_tnf(toy1):
    assert is_tnf(toy1)


def test_is_tnf_partial_goal(toy1):
    task = Task(toy1.variables, toy1.operators, toy1.initial_state, {0: 1})
    assert not is_tnf(task)


def test_is_tnf_empty_precondition(toy1):
    ops = [Operator("oX", {}, {0: 1}, 1), toy1.operators[1]]
    task = Task(toy1.variables, ops, toy1.initial_state, toy1.goal)
    assert not is_tnf(task)


def test_to_tnf_on_tnf_task_keeps_cost(toy1):
    result, certificate = to_tnf(toy1)
    assert is_tnf(result)
    assert all(v.domain_size == 3 for v in result.variables)
    assert certificate.added_operators == []  # nothing appears partially
    assert optimal_cost(result) == optimal_cost(toy1) == 2


def test_to_tnf_partial_goal(toy1):
    task = Task(toy1.variables, toy1.operators, toy1.initial_state, {0: 1})
    result, certificate = to_tnf(task)
    assert is_tnf(result)
    fresh_y = certificate.fresh_value_index[1]
    assert result.goal == {0: 1, 1: fresh_y}
    assert optimal_cost(result) == 1
    for op_id in certificate.added_operators:
        op = result.operators[op_id]
        assert op.cost == 0 and len(op.pre) == 1 and len(op.eff) == 1


def test_fresh_value_name_is_distinct(toy1):
    """A value already named like the fresh value leaves the fresh one
    primed, so that the written task reads back."""
    x = toy1.variables[0]
    named = Variable(x.id, x.name, 2, ("0", FRESH_VALUE_NAME))
    task = Task([named, toy1.variables[1]], toy1.operators, toy1.initial_state, {1: 1})
    result, _ = to_tnf(task)
    assert result.variables[0].value_names == ("0", FRESH_VALUE_NAME, FRESH_VALUE_NAME + "'")
    assert result.variables[1].value_names == ("0", "1", FRESH_VALUE_NAME)
    assert parse_sas(serialize_sas(result)) == result


def test_to_tnf_partial_operator(toy1):
    ops = [Operator("both", {0: 0}, {0: 1, 1: 1}, 1)]
    task = Task(toy1.variables, ops, toy1.initial_state, toy1.goal)
    result, certificate = to_tnf(task)
    fresh_y = certificate.fresh_value_index[1]
    transformed = result.operators[0]
    assert transformed.pre == {0: 0, 1: fresh_y}
    assert transformed.eff == {0: 1, 1: 1}
    assert is_tnf(result)


def test_to_tnf_prevail_becomes_effect(toy1):
    ops = [Operator("prevail", {0: 0, 1: 0}, {1: 1}, 1)]
    task = Task(toy1.variables, ops, toy1.initial_state, {0: 0, 1: 1})
    result, _ = to_tnf(task)
    transformed = result.operators[0]
    assert transformed.pre == {0: 0, 1: 0}
    assert transformed.eff == {0: 0, 1: 1}
    assert optimal_cost(result) == optimal_cost(task) == 1


@pytest.mark.parametrize("seed", range(25))
def test_cost_preservation(seed):
    task = random_task(4, 3, 6, seed, tnf=False, solvable=False)
    original = optimal_cost(task)
    transformed, _ = to_tnf(task)
    assert is_tnf(transformed)
    result = optimal_cost(transformed)
    if math.isinf(original):
        assert math.isinf(result)
    else:
        assert result == original


@pytest.mark.parametrize("seed", range(10))
def test_idempotence_up_to_cost(seed):
    task = random_task(3, 3, 5, seed, tnf=False, solvable=False)
    once, _ = to_tnf(task)
    twice, _ = to_tnf(once)
    a, b = optimal_cost(once), optimal_cost(twice)
    assert (math.isinf(a) and math.isinf(b)) or a == b
