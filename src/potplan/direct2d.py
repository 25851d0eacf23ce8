"""The compact LP characterizing admissible and consistent potentials, for
feature sets of any dimension, plus the exhaustive per-transition LP used as
its reference oracle.

Both models start with one bounded weight unknown per feature and the
goal-awareness row `state_objective(goal_state) <= 0`; `state_objective`,
the mean potential over given states, also gives the `init` and
`samples:N` objectives.  One assembler, `build_general_lp`, writes every
compact model: then per operator a cost row, the bound on the operator's
change in potential that bucket elimination (`elimination`) computes over
one scoped function per feature touching the operator, followed by the
elimination rows.  Elimination reads weights as columns 0..|F|-1, declares
its own unknowns on the model and hands back column-indexed rows, which go
into the model in one `add_rows` call.  Operators touched by no
context-dependent feature get the cost row alone.

For features of dimension at most 2 every context-dependency graph has no
edges (width 0), and elimination yields the binary model of Pommerening,
Helmert & Bonet (AAAI 2017): one unknown `z_o{op}_v{var}` per context
variable paired with the operator by some feature, with one row
`z_o{op}_v{var}.{value}` per value of that variable.  `build_direct2d_lp` is
that case.  At higher dimension the unknowns carry the assignment to the
remaining scope, `z_o{op}_v{var}__v{u}.{value}_...`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .elimination import (bucket_eliminate, dependency_graph, induced_width,
                          min_fill_order, scoped_functions_for_operator)
from .features import Feature, FeatureSet, WeightFunction, evaluate_potential, truth_matrix
from .lp import LinearExpression, LpModel, solve
from .task import (DEFAULT_STATE_CAP, State, SuccessorGenerator, Task,
                   TransitionSystem, build_transition_system)
from .tnf import is_tnf

WEIGHT_LOWER = -1e8
WEIGHT_UPPER = 1e8


class PotentialLpError(ValueError):
    pass


def weight_var_name(feature: Feature) -> str:
    return "w_" + "__".join(f"v{var}.{val}" for var, val in feature.facts)


@dataclass
class PotentialLp:
    model: LpModel
    weight_vars: dict[int, str]  # feature index -> weight unknown


@dataclass
class PotentialSolveResult:
    weights: WeightFunction
    value: float
    goal_potential: float
    bound_active: tuple[str, ...]


def _require_tnf(task: Task) -> None:
    if not is_tnf(task):
        raise PotentialLpError("task is not in transition normal form")


def _goal_state(task: Task) -> State:
    return tuple(task.goal[v] for v in range(len(task.variables)))


def _weights_and_goal_row(task: Task, fs: FeatureSet) -> PotentialLp:
    """A model with one bounded weight unknown per feature (columns
    0..|F|-1) and the goal row: the goal state's potential is at most 0."""
    _require_tnf(task)
    model = LpModel()
    weight_vars = {i: model.add_unknown(weight_var_name(f), WEIGHT_LOWER, WEIGHT_UPPER)
                   for i, f in enumerate(fs.features)}
    model.add_row(state_objective(fs, weight_vars, _goal_state(task)), "<=", 0.0, "goal")
    return PotentialLp(model, weight_vars)


def build_general_lp(task: Task, fs: FeatureSet,
                     orderings: dict[int, list[int]] | None = None) -> PotentialLp:
    """Assemble the compact model (no objective set yet).

    Row order is deterministic: the goal row, then per operator its cost row
    (the elimination result) followed by its elimination rows in the order
    elimination writes them.  Orderings default to min-fill on each
    context-dependency graph, which at width 0 eliminates the context
    variables by increasing id.  Elimination declares its unknowns as it
    goes; every operator's rows are then appended in one `add_rows` call.
    """
    built = _weights_and_goal_row(task, fs)
    model = built.model
    vertices = tuple(v.id for v in task.variables)
    domains = task.domain_sizes
    indptr, columns, coefficients, relations, rhs, names = [0], [], [], [], [], []
    for op_index, op in enumerate(task.operators):
        functions = scoped_functions_for_operator(task, fs, op_index)
        order = orderings.get(op_index) if orderings else None
        if order is not None or any(fn.scope for fn in functions):
            graph = dependency_graph(functions, vertices)
            if order is None:
                order = min_fill_order(graph)
            induced_width(graph, list(order))  # raises unless every variable is listed once
        result, rows = bucket_eliminate(model, functions, domains, list(order or ()),
                                        prefix=f"z_o{op_index}")
        for name, terms in [(f"op{op_index}", result), *rows]:
            columns.extend(terms)
            coefficients.extend(terms.values())
            indptr.append(len(columns))
            names.append(name)
        relations += ["<="] + [">="] * len(rows)
        rhs += [float(op.cost)] + [0.0] * len(rows)
    model.add_rows(indptr, columns, coefficients, relations, rhs, names)
    return built


def build_direct2d_lp(task: Task, fs: FeatureSet) -> PotentialLp:
    """The compact model for features of dimension at most 2, whose
    context-dependency graphs have no edges."""
    if fs.dimension > 2:
        raise PotentialLpError(f"feature set has dimension {fs.dimension}, "
                               "this construction needs dimension <= 2")
    return build_general_lp(task, fs)


def state_objective(fs: FeatureSet, weight_vars: dict[int, str],
                    *states: State) -> LinearExpression:
    """Mean potential over the given states, as a linear expression: each
    feature's weight unknown (named by `weight_vars`, feature index -> name)
    times the number of the states it is true in, over their count."""
    counts = truth_matrix(fs, states).sum(axis=0)
    held = np.flatnonzero(counts)
    # count * (1 / n), not count / n: the float that adding 1.0 per state and
    # scaling the sum by 1 / n gives
    coefficients = counts[held] * (1.0 / len(states))
    return LinearExpression.build(0.0, dict(zip([weight_vars[i] for i in held.tolist()],
                                                coefficients.tolist())))


def sample_states(task: Task, count: int, seed: int,
                  max_walk: int | None = None) -> list[State]:
    """End states of seeded random walks from the initial state."""
    rng = random.Random(seed)
    if max_walk is None:
        max_walk = 4 * len(task.variables)
    successors = SuccessorGenerator(task)
    states = []
    for _ in range(count):
        state = task.initial_state
        for _ in range(rng.randint(0, max_walk)):
            applicable = successors(state)
            if not applicable:
                break
            state = rng.choice(applicable)[1]
        states.append(state)
    return states


def extract_result(fs: FeatureSet, weight_vars: dict[int, str], task: Task,
                   solution) -> PotentialSolveResult:
    """Weights by feature index, the objective value, the goal state's
    potential and the weights at a bound, from an optimal solution."""
    values = solution.values
    weights = WeightFunction([values[weight_vars[i]] for i in range(len(fs))])
    return PotentialSolveResult(
        weights=weights,
        value=solution.objective_value,
        goal_potential=evaluate_potential(fs, weights, _goal_state(task)),
        bound_active=solution.bound_active,
    )


def _maximize(task: Task, fs: FeatureSet, built: PotentialLp,
              state: State) -> PotentialSolveResult:
    """Maximize the potential of one state over a built model.  Auxiliary
    unknowns never enter the objective (their one-sided slack would otherwise
    distort it)."""
    built.model.set_objective("max", state_objective(fs, built.weight_vars, state))
    solution = solve(built.model).require_optimal()
    return extract_result(fs, built.weight_vars, task, solution)


def solve_for_state(task: Task, fs: FeatureSet, state: State) -> PotentialSolveResult:
    """Maximize the potential of one state over the dimension-2 model."""
    return _maximize(task, fs, build_direct2d_lp(task, fs), state)


def solve_general_for_state(task: Task, fs: FeatureSet, state: State,
                            orderings: dict[int, list[int]] | None = None
                            ) -> PotentialSolveResult:
    """Maximize the potential of one state over the model of any dimension."""
    return _maximize(task, fs, build_general_lp(task, fs, orderings), state)


def build_exhaustive_lp(task: Task, fs: FeatureSet,
                        ts: TransitionSystem | None = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> PotentialLp:
    """Reference model with one consistency row per explicit transition.

    Exponentially large in general; usable only at desk scale, where it is
    the ground truth all compact constructions are compared against.
    """
    built = _weights_and_goal_row(task, fs)
    if ts is None:
        ts = build_transition_system(task, state_cap)
    # Row of transition s -> t: truth(s) - truth(t) over the features, whose
    # weight unknowns are columns 0..|F|-1.
    truth = truth_matrix(fs, ts.state_array())
    table = ts.transition_array()
    change = truth[table[:, 0]] - truth[table[:, 2]]
    rows, columns = np.nonzero(change)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(table)))))
    costs = np.array([op.cost for op in task.operators], dtype=float)
    built.model.add_rows(indptr, columns, change[rows, columns], "<=", costs[table[:, 1]],
                         [f"t{ti}" for ti in range(len(table))])
    return built


def solve_exhaustive_for_state(task: Task, fs: FeatureSet, state: State,
                               ts: TransitionSystem | None = None) -> PotentialSolveResult:
    return _maximize(task, fs, build_exhaustive_lp(task, fs, ts), state)
