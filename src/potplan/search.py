"""A* with potential heuristics and the explicit-state validators used as
oracles throughout the test suite."""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import FeatureSet
from .task import (DEFAULT_STATE_CAP, State, SuccessorGenerator, Task,
                   build_transition_system, exact_goal_distances, state_index)

VALIDATION_TOL = 1e-6


class NoPlanError(ValueError):
    pass


@dataclass
class SearchResult:
    plan: list[int] | None
    cost: float
    expansions: int
    expansions_before_last_f_layer: int
    evaluated: int
    wall_time: float


@dataclass
class ValidationReport:
    goal_aware: bool
    consistent: bool
    admissible: bool
    # the first violating state; for a consistency violation the source of
    # the violating transition, whose operator id is `operator`
    counterexample: State | None = None
    operator: int | None = None


class PotentialHeuristic:
    """Potential evaluation indexed by the variable, then the value, of each
    feature's first fact, so a lookup touches only features whose first fact
    holds instead of scanning all; the sum runs by variable, then feature."""

    def __init__(self, task: Task, fs: FeatureSet, w: list[float]):
        self._index: list[list[list[tuple[list[list[int]], float]]]] = [
            [[] for _ in range(var.domain_size)] for var in task.variables]
        sizes = fs.distinct.sum(axis=1).tolist()
        for facts, size, weight in zip(fs.fact_table.tolist(), sizes, w):
            if weight == 0.0:
                continue
            (var, val), rest = facts[0], facts[1:size]
            self._index[var][val].append((rest, weight))

    def __call__(self, state: State) -> float:
        total = 0.0
        for by_value, value in zip(self._index, state):
            for rest, weight in by_value[value]:
                for var, val in rest:
                    if state[var] != val:
                        break
                else:
                    total += weight
        return total


def blind(_state: State) -> float:
    return 0.0


def astar(task: Task, heuristic: Callable[[State], float]) -> SearchResult:
    """A* with duplicate detection and reopening.  With an admissible
    heuristic the returned cost is optimal.  Expansions whose f value equals
    the final plan cost form the last f-layer and are counted separately.

    States are keyed by their `state_index`; a successor's index is the
    expanded state's plus the operator's shift, so its values are built,
    and its heuristic value computed, only when it is first generated."""
    start = time.perf_counter()
    successors = SuccessorGenerator(task)
    applicable, shifts, frees = successors.applicable, successors.shift, successors.free
    effects, costs = successors.effect, successors.cost
    state_dependent = any(frees)  # no free effects in transition normal form
    push, pop = heapq.heappush, heapq.heappop
    s0 = task.initial_state
    i0, h0 = state_index(s0, task.domain_sizes), heuristic(s0)
    # index -> [g, h, values, parent index, operator] of every generated state
    nodes: dict[int, list] = {i0: [0.0, h0, s0, None, None]}
    get = nodes.get
    # Entries (f, h, push counter, index): lowest f, then lowest h, then
    # first in first out, so that expansion counts are reproducible.
    open_list: list[tuple[float, float, int, int]] = []
    push(open_list, (h0, h0, 0, i0))
    pushes = 1
    expansions = 0
    expansion_f: list[float] = []

    while open_list:
        f, h_state, _, index = pop(open_list)
        g, _, state, _, _ = nodes[index]
        if f - h_state > g + 1e-12:
            continue  # stale entry, a better path has been found since
        if task.is_goal_state(state):
            plan: list[int] = []
            while nodes[index][3] is not None:
                index, op_id = nodes[index][3:]
                plan.append(op_id)
            plan.reverse()
            before_last = sum(1 for fv in expansion_f if fv < g - 1e-9)
            return SearchResult(plan, g, expansions, before_last,
                                len(nodes), time.perf_counter() - start)
        expansions += 1
        expansion_f.append(f)
        for op_id in applicable(state):
            succ = index + shifts[op_id]
            if state_dependent:
                for var, val, stride in frees[op_id]:
                    succ += (val - state[var]) * stride
            g2 = g + costs[op_id]
            node = get(succ)
            if node is None:  # first generated
                values = list(state)
                for var, val in effects[op_id]:
                    values[var] = val
                values = tuple(values)
                node = nodes[succ] = [g2, heuristic(values), values, index, op_id]
            elif g2 < node[0] - 1e-12:
                node[0], node[3], node[4] = g2, index, op_id
            else:
                continue
            push(open_list, (g2 + node[1], node[1], pushes, succ))
            pushes += 1
    raise NoPlanError("goal is unreachable from the initial state")


def validate(task: Task, heuristic: Callable[[State], float],
             state_cap: int = DEFAULT_STATE_CAP) -> ValidationReport:
    """Exhaustively check goal-awareness, consistency, and admissibility of a
    heuristic over the full state space, within a 1e-6 tolerance."""
    ts = build_transition_system(task, state_cap)
    states = list(map(tuple, ts.states.tolist()))
    values = np.array([heuristic(s) for s in states], dtype=float)
    # each scan's witness is its first violation, in goal and transition
    # order; written as "not ok" so that a NaN value counts as a violation
    src, op, dst = ts.transitions.T
    goal_violations = ts.goals[~(values[ts.goals] <= VALIDATION_TOL)]
    consistency_violations = np.flatnonzero(
        ~(values[src] <= ts.operator_costs[op] + values[dst] + VALIDATION_TOL))
    admissibility_violations = np.flatnonzero(
        ~(values <= exact_goal_distances(ts) + VALIDATION_TOL))
    goal_aware, consistent, admissible = (
        not len(v) for v in (goal_violations, consistency_violations, admissibility_violations))

    # a consistency violation names a transition and is the most useful witness
    counterexample, operator = None, None
    if not consistent:
        ti = consistency_violations[0]
        counterexample, operator = states[src[ti]], int(op[ti])
    elif not goal_aware:
        counterexample = states[goal_violations[0]]
    elif not admissible:
        counterexample = states[admissibility_violations[0]]
    return ValidationReport(goal_aware, consistent, admissible, counterexample, operator)
