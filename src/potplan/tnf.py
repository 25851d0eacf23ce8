"""Transition normal form: every operator mentions the same variables in
precondition and effect, and the goal is a single full state."""

from __future__ import annotations

from dataclasses import dataclass

from .task import Operator, Task, Variable

FRESH_VALUE_NAME = "<undefined>"


@dataclass
class TnfCertificate:
    """What the transform added: the fresh value per variable and the ids of
    the zero-cost forgetting operators."""

    fresh_value_index: dict[int, int]
    added_operators: list[int]


def is_tnf(task: Task) -> bool:
    if len(task.goal) != len(task.variables):
        return False
    return all(set(op.pre) == set(op.eff) for op in task.operators)


def _fresh_value_name(names: tuple[str, ...]) -> str:
    """FRESH_VALUE_NAME, primed until no value of the variable has it, so
    that value names stay distinct."""
    name = FRESH_VALUE_NAME
    while name in names:
        name += "'"
    return name


def to_tnf(task: Task) -> tuple[Task, TnfCertificate]:
    """Normalize a task, preserving optimal plan cost.

    Every variable gets one fresh "undefined" value.  Operators that mention a
    variable only in the effect get the fresh value as precondition; variables
    mentioned only in the precondition keep their value as an explicit effect.
    Unassigned goal variables are set to the fresh value.  Zero-cost forgetting
    operators (value -> fresh) are added for variables that appear partially in
    some operator or are unassigned in the goal.
    """
    fresh = {var.id: var.domain_size for var in task.variables}
    variables = [
        Variable(var.id, var.name, var.domain_size + 1,
                 var.value_names + (_fresh_value_name(var.value_names),))
        for var in task.variables
    ]

    needs_forget = {
        var.id for var in task.variables if var.id not in task.goal
    }
    for op in task.operators:
        needs_forget.update(set(op.pre).symmetric_difference(set(op.eff)))

    operators = []
    for op in task.operators:
        pre = dict(op.pre)
        eff = dict(op.eff)
        for var in set(eff) - set(pre):
            pre[var] = fresh[var]
        for var in set(op.pre) - set(eff):
            eff[var] = op.pre[var]
        operators.append(Operator(op.name, pre, eff, op.cost))

    added = []
    for var in sorted(needs_forget):
        for val in range(task.variables[var].domain_size):
            added.append(len(operators))
            operators.append(Operator(
                f"forget-{task.variables[var].name}-{task.variables[var].value_names[val]}",
                {var: val}, {var: fresh[var]}, 0))

    goal = dict(task.goal)
    for var in task.variables:
        if var.id not in goal:
            goal[var.id] = fresh[var.id]

    result = Task(variables, operators, task.initial_state, goal)
    return result, TnfCertificate(fresh, added)
