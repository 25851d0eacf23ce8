"""The compact LP characterizing admissible and consistent potentials, for
feature sets of any dimension, plus the exhaustive per-transition LP used as
its reference oracle.

Both models, returned as the `LpModel` itself, are built over the kept
features of the given set (`features.kept_features`): they start with one
free weight unknown per kept feature (kept feature i is column i), named
from the kept fact table by `features.joined_facts`, `w_v3.1__v7.0` for
the feature v3 = 1 & v7 = 0, and the goal-awareness row
`state_objective(goal_state) <= 0`.  As in the paper,
only rows constrain the weights, so HiGHS starts primal simplex at x = 0
(`lp._Session`); an admissible potential is at most h*, so only an
objective over dead-end states can be unbounded.
`state_objective`, the mean potential over given states as a map {column:
coefficient}, also gives the `init` and `samples:N` objectives; it and
`all_states_objective` take the given set and map its features to the
kept columns, so callers never see the kept set.  One assembler,
`build_general_lp`, writes every compact model: then per operator a cost
row, the bound on the operator's change in potential that bucket
elimination (`elimination`) computes, followed by the elimination rows.
Elimination, given the kept set, declares its unknowns on the model and
hands back column-indexed rows.

The other weights are pinned to 0 and have no column: their indicators are
combinations of the kept ones', so the model expresses the same potentials,
but weights can no longer shift against each other without changing any
potential.  `extract_result` puts them back as 0.0, so reported weights
follow the given set.

For features of dimension at most 2 every context-dependency graph has no
edges (width 0), and elimination yields the binary model of Pommerening,
Helmert & Bonet (AAAI 2017): one unknown `z_o{op}_v{var}` per context
variable paired with the operator by some feature, with one row
`z_o{op}_v{var}.{value}` per value of that variable.  Elimination writes
these for all such operators in one array pass (`eliminate_width0`);
`build_direct2d_lp` is that case.  At higher dimension the operators whose
graphs have edges, ordered by one game (`eliminate_graphs`), are eliminated
together in a second array pass (`eliminate_buckets`), and their unknowns
carry the assignment to the remaining scope, `z_o{op}_v{var}__v{u}.{value}_...`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .elimination import (adjacency, check_order, classify, eliminate_buckets,
                          eliminate_graphs, eliminate_width0)
from .features import FeatureSet, evaluate_potential, joined_facts, kept_features, truth_matrix
from .lp import OPTIMALITY_TOL, LpModel, LpSolution, solve
from .task import (DEFAULT_STATE_CAP, State, SuccessorGenerator, Task,
                   TransitionSystem, build_transition_system, successor)
from .tnf import is_tnf

# The weights' box in `solve_for_state`'s tie-break if it is unbounded.  A
# potential sums weights near the box with rounding of a few ulp of it: 1e-10
# at 1e6, below the 1e-9 to which potentials are printed and compared, where
# 1e8 gave 1.5e-8 per ulp.
WEIGHT_LOWER = -1e6
WEIGHT_UPPER = 1e6


class PotentialLpError(ValueError):
    pass


@dataclass
class PotentialSolveResult:
    weights: list[float]
    value: float
    goal_potential: float


def _require_tnf(task: Task) -> None:
    if not is_tnf(task):
        raise PotentialLpError("task is not in transition normal form")


def _goal_state(task: Task) -> State:
    return tuple(task.goal[v] for v in range(len(task.variables)))


def _weights_and_goal_row(task: Task, fs: FeatureSet) -> tuple[LpModel, FeatureSet]:
    """The kept features of `fs` and a model with one free weight unknown
    per kept feature (columns 0..|kept|-1) and the goal row: the goal
    state's potential is at most 0."""
    _require_tnf(task)
    kept = kept_features(fs, task.domain_sizes)[0]
    model = LpModel()
    model.add_unknowns(["w_" + name for name in joined_facts(
        kept, [[f"v{var.id}.{val}" for val in range(var.domain_size)] for var in task.variables],
        "__")])
    goal = state_objective(task, fs, _goal_state(task))
    model.add_rows([0, len(goal)], list(goal), list(goal.values()), "<=", 0.0, ["goal"])
    return model, kept


def build_general_lp(task: Task, fs: FeatureSet,
                     orderings: dict[int, list[int]] | None = None) -> LpModel:
    """Assemble the compact model over the kept features of `fs` (no
    objective set yet).

    Row order is deterministic: the goal row, then per operator its cost row
    (the elimination result) followed by its elimination rows in the order
    elimination writes them, and the elimination unknowns follow the weights
    in the same operator order.  Orderings default to min-fill on each
    context-dependency graph, which at width 0 eliminates the context
    variables by increasing id.  One elimination game orders every operator
    whose graph has edges or that `orderings` names, and each run of such
    operators is eliminated in one `eliminate_buckets` pass, each run of the
    others in one `eliminate_width0` pass, its rows in one `add_rows` call.
    """
    model, kept = _weights_and_goal_row(task, fs)
    orders = np.full((len(task.operators), len(task.variables)), -1)  # -1: min-fill's
    for k, order in (orderings or {}).items():
        check_order(order, range(len(task.variables)))
        orders[k] = order
    classes = classify(task, kept)
    graphs = adjacency(task, kept, classes)
    lockstep = graphs.any(axis=(1, 2)) | (orders >= 0).any(axis=1)
    if lockstep.any():
        orders[lockstep] = eliminate_graphs(graphs[lockstep], orders[lockstep])[0]
    for batched, run in itertools.groupby(range(len(task.operators)), lockstep.__getitem__):
        start, stop = (run := list(run))[0], run[-1] + 1
        if not batched:
            model.add_rows(*eliminate_width0(model, task, kept, classes, start, stop))
            continue
        model.add_rows(*eliminate_buckets(model, task, kept, classes, start, stop,
                                          orders[start:stop]))
    return model


def build_direct2d_lp(task: Task, fs: FeatureSet) -> LpModel:
    """The compact model for features of dimension at most 2, whose
    context-dependency graphs have no edges."""
    if fs.dimension > 2:
        raise PotentialLpError(f"feature set has dimension {fs.dimension}, "
                               "this construction needs dimension <= 2")
    return build_general_lp(task, fs)


def state_objective(task: Task, fs: FeatureSet, *states: State) -> dict[int, float]:
    """Mean potential over the given states, as {column: coefficient} of a
    model built over `fs`: each kept feature's weight column times the
    number of the states the feature is true in, over their count."""
    counts = truth_matrix(kept_features(fs, task.domain_sizes)[0], states).sum(axis=0)
    held = np.flatnonzero(counts)
    # count * (1 / n), not count / n: the float that adding 1.0 per state and
    # scaling the sum by 1 / n gives
    coefficients = counts[held] * (1.0 / len(states))
    return dict(zip(held.tolist(), coefficients.tolist()))


def sample_states(task: Task, count: int, seed: int) -> list[State]:
    """End states of seeded random walks of up to 4 steps per variable from
    the initial state."""
    rng = random.Random(seed)
    successors = SuccessorGenerator(task)
    states = []
    for _ in range(count):
        state = task.initial_state
        for _ in range(rng.randint(0, 4 * len(task.variables))):
            if not (applicable := successors.applicable(state)):
                break
            state = successor(state, task.operators[rng.choice(applicable)])
        states.append(state)
    return states


def extract_result(fs: FeatureSet, task: Task, solution: LpSolution) -> PotentialSolveResult:
    """Weights by index into `fs`, read from the kept features' columns and
    0.0 for the pinned ones, the objective value and the goal state's
    potential, from an optimal solution of a model built over `fs`."""
    kept, index = kept_features(fs, task.domain_sizes)
    weights = np.zeros(len(fs))
    weights[index] = solution.x[:len(kept)]
    weights = weights.tolist()
    return PotentialSolveResult(
        weights=weights,
        value=solution.objective_value,
        goal_potential=evaluate_potential(fs, weights, _goal_state(task)),
    )


def all_states_objective(task: Task, fs: FeatureSet) -> dict[int, float]:
    """Mean potential over all syntactic states, as {column: coefficient}
    of a model built over `fs`: kept feature f holds in the share
    1 / Π_{V in vars(f)} |D_V| of them."""
    kept = kept_features(fs, task.domain_sizes)[0]
    sizes = np.asarray(task.domain_sizes, dtype=np.int64)[kept.fact_table[:, :, 0]]
    shares = 1.0 / np.where(kept.distinct, sizes, 1).prod(axis=1)
    return dict(enumerate(shares.tolist()))


def solve_for_state(task: Task, fs: FeatureSet, state: State) -> PotentialSolveResult:
    """Maximize the potential of one state over the dimension-2 model, then
    break the tie among its optimal weights: a second, warm solve keeps the
    state's potential within OPTIMALITY_TOL of that optimum and maximizes
    the mean potential over all syntactic states (Seipp, Pommerening &
    Helmert, ICAPS 2015), so that the weights inform a search heuristic away
    from the state too; where that mean is unbounded (only with dead ends),
    it is solved again with the weights boxed.  The value is the first
    solve's optimum; if that is unbounded (a dead end), it raises LpStatusError."""
    model = build_direct2d_lp(task, fs)
    objective = state_objective(task, fs, state)
    model.set_objective(objective)
    optimum = solve(model).require_optimal().objective_value
    model.add_rows([0, len(objective)], list(objective), list(objective.values()), ">=",
                   optimum - OPTIMALITY_TOL * max(1.0, abs(optimum)), ["tie_break"])
    model.set_objective(mean := all_states_objective(task, fs))
    solution = solve(model)
    if solution.status == "unbounded":
        model.set_bounds(list(mean), [WEIGHT_LOWER] * len(mean), [WEIGHT_UPPER] * len(mean))
        solution = solve(model)
    result = extract_result(fs, task, solution.require_optimal())
    result.value = optimum
    return result


def build_exhaustive_lp(task: Task, fs: FeatureSet,
                        ts: TransitionSystem | None = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> LpModel:
    """Reference model with one consistency row per explicit transition,
    over the kept features of `fs`.

    Exponentially large in general; usable only at desk scale, where it is
    the ground truth all compact constructions are compared against.
    """
    model, kept = _weights_and_goal_row(task, fs)
    if ts is None:
        ts = build_transition_system(task, state_cap)
    # Row of transition s -> t: truth(s) - truth(t) over the kept features,
    # whose weight unknowns are columns 0..|kept|-1.
    truth = truth_matrix(kept, ts.states)
    table = ts.transitions
    change = truth[table[:, 0]] - truth[table[:, 2]]
    rows, columns = np.nonzero(change)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(table)))))
    model.add_rows(indptr, columns, change[rows, columns], "<=", ts.operator_costs[table[:, 1]],
                   [f"t{ti}" for ti in range(len(table))])
    return model
