"""Projection abstractions and the optimal transition / operator cost
partitioning LPs over an explicit transition system.

The operator LP has one cost unknown per (abstraction, operator); the
transition LP has its cost unknowns eliminated exactly.  Both exist at desk
scale as oracles for the equivalence with state-maximized potential heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .features import Feature, FeatureSet, WeightFunction
from .lp import FEASIBILITY_TOL, LpModel, LpSolution
from .task import State, TransitionSystem, goal_distances, iter_states, state_index, strides


class AbstractionError(ValueError):
    pass


@dataclass
class Projection:
    """Restriction of every state to a pattern of variables."""

    pattern: tuple[int, ...]
    domain_sizes: tuple[int, ...]
    size: int  # number of abstract states
    initial: int
    goal: int
    # abstract state of every concrete state, by concrete state index
    state_map: np.ndarray = field(compare=False, repr=False)
    ts: TransitionSystem = field(compare=False, repr=False)

    @property
    def abstract_transitions(self) -> np.ndarray:
        """One (abstract source, operator, abstract target) row per concrete
        transition, aligned with `ts.transitions`; built on access: neither
        LP builder reads them."""
        table = self.ts.transitions.copy()
        table[:, ::2] = self.state_map[table[:, ::2]]
        return table

    def map_state(self, state: State) -> int:
        return state_index(tuple(state[var] for var in self.pattern), self.domain_sizes)

    def goal_distances(self, costs) -> np.ndarray:
        """Abstract goal distances under signed per-concrete-transition costs."""
        return goal_distances(self.size, self.abstract_transitions, [self.goal], costs)


def project(ts: TransitionSystem, pattern) -> Projection:
    """Project the explicit system onto a (possibly empty) variable pattern."""
    pattern = tuple(sorted(pattern))
    doms = tuple(ts.domain_sizes[v] for v in pattern)
    # the index of each concrete state's restriction, as in Projection.map_state
    state_map = ts.states[:, list(pattern)] @ np.array(strides(doms), dtype=np.int64)
    goals = set(state_map[ts.goals].tolist())
    if len(goals) != 1:
        raise AbstractionError("projection needs a single abstract goal state "
                               "(task must be in transition normal form)")
    return Projection(pattern, doms, math.prod(doms), int(state_map[ts.initial]),
                      goals.pop(), state_map, ts)


@dataclass
class CostPartitioningLp:
    model: LpModel
    projections: list[Projection]
    offsets: list[int]  # column of each projection's abstract state 0
    # operator variant: column of the cost unknown of (operator, abstraction);
    # transition variant, which has no cost unknowns: h column of the
    # abstract state of (concrete state, abstraction)
    columns: np.ndarray
    per_transition: bool

    def set_state(self, state: State) -> None:
        """Make the objective the total abstract value of the given state."""
        self.model.set_objective("max", {offset + proj.map_state(state): 1.0
                                         for offset, proj in zip(self.offsets, self.projections)})

    def extract_cost_functions(self, ts: TransitionSystem,
                               solution: LpSolution) -> np.ndarray:
        """(abstraction, concrete transition) costs: the value of the
        operator's cost unknown, or in the transition variant the least
        feasible cost h(abstract source) - h(abstract target)."""
        x = solution.x
        src, op, dst = ts.transitions.T
        if self.per_transition:
            return (x[self.columns[src]] - x[self.columns[dst]]).T
        return x[self.columns[op]].T


def _add_h_unknowns(model: LpModel, projections: list[Projection]) -> list[int]:
    """Declare every abstract state's h unknown; returns the column of each
    projection's abstract state 0."""
    offsets = np.cumsum([len(model.unknowns)] + [proj.size for proj in projections])
    names = [f"h_a{ai}_s{si}" for ai, proj in enumerate(projections) for si in range(proj.size)]
    model.add_unknowns(names, [-math.inf] * len(names), [math.inf] * len(names))
    return offsets[:-1].tolist()


def _add_goal_rows(model: LpModel, projections: list[Projection],
                   offsets: list[int]) -> None:
    """h of each abstract goal state is 0."""
    model.add_rows(np.arange(len(projections) + 1),
                   [offset + proj.goal for offset, proj in zip(offsets, projections)],
                   np.ones(len(projections)), "=", 0.0,
                   [f"goal_a{ai}" for ai in range(len(projections))])


def _add_consistency_rows(model: LpModel, asrc: np.ndarray, adst: np.ndarray,
                          cost_columns: np.ndarray, names: list[str]) -> None:
    """h(asrc) - h(adst) - cost <= 0 per (column-indexed) abstract transition;
    on self-loops the h terms cancel and only -cost remains."""
    columns = np.stack([asrc, adst, cost_columns], axis=1).ravel()
    coefficients = np.tile([1.0, -1.0, -1.0], len(asrc))
    model.add_rows(np.arange(len(asrc) + 1) * 3, columns, coefficients, "<=", 0.0, names)


def _add_partition_rows(model: LpModel, cost_columns: np.ndarray, limits,
                        names: list[str]) -> None:
    """Per row of `cost_columns` (one column per abstraction), the summed
    cost unknowns stay below the limit."""
    count, width = cost_columns.shape
    model.add_rows(np.arange(count + 1) * width, cost_columns.ravel(),
                   np.ones(cost_columns.size), "<=", np.asarray(limits, dtype=float), names)


def build_tcp_lp(ts: TransitionSystem, patterns, state: State) -> CostPartitioningLp:
    """Transition cost partitioning: per abstraction a zero row for the
    abstract goal; per concrete transition t the row `part_t{t}`, sum_a
    h_a(asrc) - h_a(adst) <= operator cost.  It sums the rows h_a(asrc) -
    h_a(adst) - c_{a,t} <= 0 over all a and sum_a c_{a,t} <= cost, the only
    rows holding the free cost unknowns c_{a,t}; eliminating them this way
    (Fourier-Motzkin) keeps the optimum.  Objective: total abstract value of
    the given state."""
    projections = [project(ts, p) for p in patterns]
    model = LpModel()
    offsets = _add_h_unknowns(model, projections)
    _add_goal_rows(model, projections, offsets)
    maps = [offset + proj.state_map for offset, proj in zip(offsets, projections)]
    state_columns = np.array(maps, dtype=np.int64).reshape(len(projections), len(ts.states)).T
    table = ts.transitions
    # canonical rows: each abstraction's h columns as (min, max), none on self-loops
    src, dst = state_columns[table[:, 0]], state_columns[table[:, 2]]
    moved, sign = src != dst, np.where(src < dst, 1.0, -1.0)
    model.add_rows(np.concatenate(([0], np.cumsum(2 * moved.sum(axis=1)))),
                   np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=2)[moved].ravel(),
                   np.stack([sign, -sign], axis=2)[moved].ravel(), "<=",
                   ts.operator_costs[table[:, 1]], [f"part_t{ti}" for ti in range(len(table))])
    built = CostPartitioningLp(model, projections, offsets, state_columns,
                               per_transition=True)
    built.set_state(state)
    return built


def build_ocp_lp(ts: TransitionSystem, patterns, state: State) -> CostPartitioningLp:
    """Operator cost partitioning: goal rows as in the transition variant,
    one cost unknown per (abstraction, operator), a consistency row per
    distinct abstract transition (parallel ones collapse) and per operator a
    row keeping its summed cost unknowns below its cost."""
    projections = [project(ts, p) for p in patterns]
    n_ops = len(ts.operator_costs)
    model = LpModel()
    offsets = _add_h_unknowns(model, projections)
    first_cost = len(model.unknowns)
    names = [f"c_a{ai}_o{op}" for ai in range(len(projections)) for op in range(n_ops)]
    model.add_unknowns(names, [-math.inf] * len(names), [math.inf] * len(names))
    # cost column of (abstraction ai, operator op), one row per operator
    cost_columns = first_cost + np.arange(len(projections)) * n_ops + np.arange(n_ops)[:, None]
    _add_goal_rows(model, projections, offsets)
    table = ts.transitions
    ops = table[:, 1]
    for ai, proj in enumerate(projections):
        asrc, adst = proj.state_map[table[:, 0]], proj.state_map[table[:, 2]]
        # first occurrence of each distinct (asrc, op, adst), in transition order
        key = (asrc * n_ops + ops) * proj.size + adst
        first = np.sort(np.unique(key, return_index=True)[1])
        asrc, op_ids, adst = asrc[first], ops[first], adst[first]
        _add_consistency_rows(
            model, offsets[ai] + asrc, offsets[ai] + adst, cost_columns[op_ids, ai],
            [f"cons_a{ai}_s{s}_o{o}_s{d}"
             for s, o, d in zip(asrc.tolist(), op_ids.tolist(), adst.tolist())])
    _add_partition_rows(model, cost_columns, ts.operator_costs,
                        [f"part_o{op}" for op in range(n_ops)])
    built = CostPartitioningLp(model, projections, offsets, cost_columns,
                               per_transition=False)
    built.set_state(state)
    return built


def validate_partition(ts: TransitionSystem, cost_functions) -> tuple[bool, int | None]:
    """Check the partitioning inequality on every transition, given one cost
    per transition for each abstraction; returns the first violating
    transition index, if any."""
    total = np.zeros(len(ts.transitions))
    for fn in cost_functions:
        if len(fn) != len(ts.transitions):
            raise AbstractionError("cost function does not cover every transition")
        total += fn
    violations = np.flatnonzero(
        total > ts.operator_costs[ts.transitions[:, 1]] + FEASIBILITY_TOL)
    return (False, int(violations[0])) if len(violations) else (True, None)


def all_patterns(n_variables: int, max_size: int = 2) -> list[tuple[int, ...]]:
    """All variable patterns of size 1..max_size, in lexicographic order."""
    out = []
    for size in range(1, max_size + 1):
        out.extend(itertools.combinations(range(n_variables), size))
    return out


def features_of_abstractions(ts: TransitionSystem, patterns) -> FeatureSet:
    """One conjunction feature per abstract state of each projection.

    The empty pattern is rejected: its only abstract state is the always-true
    conjunction, which features cannot express.
    """
    features = []
    seen = set()
    for pattern in patterns:
        pattern = tuple(sorted(pattern))
        if not pattern:
            raise AbstractionError("empty patterns have no feature representation")
        for values in iter_states(tuple(ts.domain_sizes[v] for v in pattern)):
            f = Feature(tuple(zip(pattern, values)))
            if f not in seen:
                seen.add(f)
                features.append(f)
    return FeatureSet(tuple(features))


def shift_weights_to_goal(ts: TransitionSystem, patterns, fs: FeatureSet,
                          w: WeightFunction) -> WeightFunction:
    """Subtract, from each feature's weight, the weight of its pattern's
    goal-state feature; the shifted potential dominates the original one and
    stays feasible."""
    goal_state = ts.states[ts.goals[0]].tolist()
    goal_weight: dict[tuple[int, ...], float] = {}
    for pattern in patterns:
        pattern = tuple(sorted(pattern))
        goal_feature = Feature(tuple((v, goal_state[v]) for v in pattern))
        goal_weight[pattern] = w[fs.index_of(goal_feature)]
    shifted = []
    for i, f in enumerate(fs.features):
        shifted.append(w[i] - goal_weight[f.variables])
    return WeightFunction(shifted)
