"""The compact LP characterizing admissible and consistent potentials for
feature sets of dimension at most 2, plus the exhaustive per-transition LP
used as its reference oracle.

The compact model has one goal-awareness row and, per operator, one cost row
over the state-independent weight change plus upper-bound unknowns for the
per-variable context contribution, with one bounding row per value of each
context variable.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .features import (Feature, FeatureSet, WeightFunction, classify_features,
                       delta_independent, evaluate_potential)
from .lp import LinearExpression, LpModel, Row, solve
from .task import (DEFAULT_STATE_CAP, State, Task, TransitionSystem,
                   build_transition_system, is_applicable, successor)
from .tnf import is_tnf

WEIGHT_LOWER = -1e8
WEIGHT_UPPER = 1e8


class PotentialLpError(ValueError):
    pass


def weight_var_name(feature: Feature) -> str:
    return "w_" + "__".join(f"v{var}.{val}" for var, val in feature.facts)


def z_var_name(op_index: int, var: int) -> str:
    return f"z_o{op_index}_v{var}"


@dataclass
class OperatorRows:
    main: Row
    z_bounds: list[Row]
    z_names: dict[int, str]  # context variable id -> unknown name


@dataclass
class Direct2dLp:
    model: LpModel
    weight_vars: dict[int, str]
    z_vars: dict[tuple[int, int], str]


@dataclass
class PotentialSolveResult:
    weights: WeightFunction
    value: float
    goal_potential: float
    bound_active: tuple[str, ...]


def _require_tnf(task: Task) -> None:
    if not is_tnf(task):
        raise PotentialLpError("task is not in transition normal form")


def goal_row_expression(task: Task, fs: FeatureSet,
                        weight_vars: dict[int, str]) -> LinearExpression:
    goal_state = tuple(task.goal[v] for v in range(len(task.variables)))
    terms: dict[str, float] = {}
    for i, f in enumerate(fs.features):
        if f.true_in(goal_state):
            terms[weight_vars[i]] = terms.get(weight_vars[i], 0.0) + 1.0
    return LinearExpression.build(0.0, terms)


def build_goal_row(task: Task, fs: FeatureSet) -> Row:
    """Goal-awareness: the summed weight of all goal-true features is <= 0."""
    _require_tnf(task)
    weight_vars = {i: weight_var_name(f) for i, f in enumerate(fs.features)}
    return Row(goal_row_expression(task, fs, weight_vars), "<=", 0.0, "goal")


def build_operator_rows(task: Task, fs: FeatureSet, op_index: int) -> OperatorRows:
    """Cost row plus z-bound rows for one operator.

    A z unknown exists only for context variables actually paired with the
    operator by some context-dependent feature; for those, one bound row is
    emitted per domain value (empty sums included, they keep z above the zero
    contribution of values matched by no feature).
    """
    _require_tnf(task)
    if fs.dimension > 2:
        raise PotentialLpError(f"feature set has dimension {fs.dimension}, "
                               "this construction needs dimension <= 2")
    op = task.operators[op_index]
    weight_vars = {i: weight_var_name(f) for i, f in enumerate(fs.features)}
    partition = classify_features(fs, op)
    op_vars = set(op.eff)

    main = LinearExpression()
    for i in partition.context_independent:
        change = delta_independent(op, fs.features[i])
        if change:
            main = main + LinearExpression.term(weight_vars[i], float(change))

    # context feature -> (outside variable, outside value, inside-fact delta)
    by_context_var: dict[int, dict[int, LinearExpression]] = {}
    for i in partition.context_dependent:
        f = fs.features[i]
        inside = [fact for fact in f.facts if fact[0] in op_vars]
        outside = [fact for fact in f.facts if fact[0] not in op_vars]
        var, val = outside[0]
        change = delta_independent(op, Feature(tuple(inside)))
        bucket = by_context_var.setdefault(var, {})
        if change:
            bucket[val] = bucket.get(val, LinearExpression()) + \
                LinearExpression.term(weight_vars[i], float(change))

    z_names: dict[int, str] = {}
    z_bounds: list[Row] = []
    for var in sorted(by_context_var):
        name = z_var_name(op_index, var)
        z_names[var] = name
        main = main + LinearExpression.term(name)
        sums = by_context_var[var]
        for val in range(task.variables[var].domain_size):
            rhs_expr = sums.get(val, LinearExpression())
            z_bounds.append(Row(LinearExpression.term(name) - rhs_expr, ">=", 0.0,
                                f"z_o{op_index}_v{var}.{val}"))
    main_row = Row(main, "<=", float(op.cost), f"op{op_index}")
    return OperatorRows(main_row, z_bounds, z_names)


def build_direct2d_lp(task: Task, fs: FeatureSet) -> Direct2dLp:
    """Assemble the full compact model (no objective set yet).

    Row order is deterministic: goal row first, then per operator its cost
    row followed by z-bound rows ordered by (variable, value).
    """
    _require_tnf(task)
    model = LpModel()
    weight_vars = {}
    for i, f in enumerate(fs.features):
        weight_vars[i] = model.add_unknown(weight_var_name(f), WEIGHT_LOWER, WEIGHT_UPPER)
    goal = build_goal_row(task, fs)
    pending: list[Row] = [goal]
    z_vars: dict[tuple[int, int], str] = {}
    for op_index in range(len(task.operators)):
        rows = build_operator_rows(task, fs, op_index)
        for var, name in rows.z_names.items():
            z_vars[(op_index, var)] = model.add_unknown(name)
        pending.append(rows.main)
        pending.extend(rows.z_bounds)
    for row in pending:
        model.add_row(row.expression, row.relation, row.rhs, row.name)
    return Direct2dLp(model, weight_vars, z_vars)


def state_objective(fs: FeatureSet, weight_vars: dict[int, str],
                    state: State) -> LinearExpression:
    terms: dict[str, float] = {}
    for i, f in enumerate(fs.features):
        if f.true_in(state):
            terms[weight_vars[i]] = terms.get(weight_vars[i], 0.0) + 1.0
    return LinearExpression.build(0.0, terms)


def sample_states(task: Task, count: int, seed: int,
                  max_walk: int | None = None) -> list[State]:
    """End states of seeded random walks from the initial state."""
    rng = random.Random(seed)
    if max_walk is None:
        max_walk = 4 * len(task.variables)
    states = []
    for _ in range(count):
        state = task.initial_state
        for _ in range(rng.randint(0, max_walk)):
            applicable = [op for op in task.operators if is_applicable(op, state)]
            if not applicable:
                break
            state = successor(state, rng.choice(applicable))
        states.append(state)
    return states


def samples_objective(task: Task, fs: FeatureSet, weight_vars: dict[int, str],
                      count: int, seed: int) -> LinearExpression:
    """Mean potential over sampled states, as a linear objective."""
    expr = LinearExpression()
    for state in sample_states(task, count, seed):
        expr = expr + state_objective(fs, weight_vars, state)
    return expr * (1.0 / count)


def extract_result(fs: FeatureSet, weight_vars: dict[int, str], task: Task,
                   solution) -> PotentialSolveResult:
    """Weights by feature index, the objective value, the goal state's
    potential and the weights at a bound, from an optimal solution."""
    values = solution.values
    weights = WeightFunction([values[weight_vars[i]] for i in range(len(fs))])
    goal_state = tuple(task.goal[v] for v in range(len(task.variables)))
    return PotentialSolveResult(
        weights=weights,
        value=solution.objective_value,
        goal_potential=evaluate_potential(fs, weights, goal_state),
        bound_active=solution.bound_active,
    )


def solve_for_state(task: Task, fs: FeatureSet, state: State) -> PotentialSolveResult:
    """Maximize the potential of one state over the compact model."""
    built = build_direct2d_lp(task, fs)
    built.model.set_objective("max", state_objective(fs, built.weight_vars, state))
    solution = solve(built.model.freeze()).require_optimal()
    return extract_result(fs, built.weight_vars, task, solution)


def _truth_matrix(fs: FeatureSet, states: np.ndarray) -> np.ndarray:
    """(state, feature) matrix holding 1 where the feature is true."""
    truth = np.zeros((len(states), len(fs)), dtype=np.int8)
    by_size: dict[int, list[int]] = defaultdict(list)
    for i, f in enumerate(fs.features):
        by_size[f.size].append(i)
    for indices in by_size.values():
        facts = np.array([fs.features[i].facts for i in indices])  # feature, fact, (var, val)
        truth[:, indices] = np.all(states[:, facts[:, :, 0]] == facts[:, :, 1], axis=2)
    return truth


def build_exhaustive_lp(task: Task, fs: FeatureSet,
                        ts: TransitionSystem | None = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> Direct2dLp:
    """Reference model with one consistency row per explicit transition.

    Exponentially large in general; usable only at desk scale, where it is
    the ground truth all compact constructions are compared against.
    """
    _require_tnf(task)
    if ts is None:
        ts = build_transition_system(task, state_cap)
    model = LpModel()
    weight_vars = {}
    for i, f in enumerate(fs.features):
        weight_vars[i] = model.add_unknown(weight_var_name(f), WEIGHT_LOWER, WEIGHT_UPPER)
    model.add_row(goal_row_expression(task, fs, weight_vars), "<=", 0.0, "goal")
    # Row of transition s -> t: truth(s) - truth(t) over the features, whose
    # weight unknowns are columns 0..|F|-1.
    truth = _truth_matrix(fs, ts.state_array())
    table = ts.transition_array()
    change = truth[table[:, 0]] - truth[table[:, 2]]
    rows, columns = np.nonzero(change)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(table)))))
    costs = np.array([op.cost for op in task.operators], dtype=float)
    model.add_rows(indptr, columns, change[rows, columns], "<=", costs[table[:, 1]],
                   [f"t{ti}" for ti in range(len(table))])
    return Direct2dLp(model, weight_vars, {})


def solve_exhaustive_for_state(task: Task, fs: FeatureSet, state: State,
                               ts: TransitionSystem | None = None) -> PotentialSolveResult:
    built = build_exhaustive_lp(task, fs, ts)
    built.model.set_objective("max", state_objective(fs, built.weight_vars, state))
    solution = solve(built.model.freeze()).require_optimal()
    return extract_result(fs, built.weight_vars, task, solution)
