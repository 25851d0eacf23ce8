"""Seeded random planning tasks.  These are the substrate for the property
and acceptance suites, so everything here is deterministic in the seed."""

from __future__ import annotations

import math
import random

from .task import Operator, Task, Variable, build_transition_system, exact_goal_distances

GENERATOR_STATE_CAP = 200_000


class GenerationError(ValueError):
    pass


def _random_variables(rng: random.Random, n_vars: int, max_dom: int) -> list[Variable]:
    variables = []
    for i in range(n_vars):
        size = rng.randint(2, max_dom) if max_dom > 2 else 2
        variables.append(Variable(i, f"var{i}", size,
                                  tuple(f"val{j}" for j in range(size))))
    return variables


def _random_state(rng: random.Random, variables: list[Variable]) -> tuple[int, ...]:
    return tuple(rng.randrange(v.domain_size) for v in variables)


def random_task(n_vars: int, max_dom: int, n_ops: int, seed: int,
                tnf: bool = True, solvable: bool = True, max_cost: int = 10) -> Task:
    """A random task; by default in transition normal form with a reachable
    goal (resampled deterministically, up to 200 times, until one is found).
    Only the reachability check builds the state space, so only a solvable
    task is held to GENERATOR_STATE_CAP states."""
    for attempt in range(200):
        rng = random.Random(f"task:{seed}:{attempt}")
        variables = _random_variables(rng, n_vars, max_dom)
        if solvable and math.prod(v.domain_size for v in variables) > GENERATOR_STATE_CAP:
            raise GenerationError("requested task is too large for explicit oracles")
        operators = []
        for i in range(n_ops):
            scope = sorted(rng.sample(range(n_vars), rng.randint(1, min(n_vars, 3))))
            if tnf:
                pre = {v: rng.randrange(variables[v].domain_size) for v in scope}
                eff = {v: rng.randrange(variables[v].domain_size) for v in scope}
            else:
                pre_scope = sorted(rng.sample(range(n_vars),
                                              rng.randint(0, min(n_vars, 2))))
                pre = {v: rng.randrange(variables[v].domain_size) for v in pre_scope}
                eff = {v: rng.randrange(variables[v].domain_size) for v in scope}
            operators.append(Operator(f"op{i}", pre, eff, rng.randint(0, max_cost)))
        initial = _random_state(rng, variables)
        if tnf:
            goal = {v.id: rng.randrange(v.domain_size) for v in variables}
        else:
            goal_scope = sorted(rng.sample(range(n_vars), rng.randint(1, n_vars)))
            goal = {v: rng.randrange(variables[v].domain_size) for v in goal_scope}
        task = Task(variables, operators, initial, goal)
        if not solvable:
            return task
        ts = build_transition_system(task, GENERATOR_STATE_CAP)
        if exact_goal_distances(ts)[ts.initial] < math.inf:
            return task
    raise GenerationError(f"no solvable task found in 200 attempts (seed {seed})")
