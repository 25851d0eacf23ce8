"""Projection abstractions and the optimal transition / operator cost
partitioning LPs over an explicit transition system.

The operator LP has one cost unknown per (abstraction, operator); the
transition LP has its cost unknowns eliminated exactly.  Both exist at desk
scale as oracles for the equivalence with state-maximized potential heuristics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .features import Feature, FeatureSet, WeightFunction
from .lp import FEASIBILITY_TOL, LinearExpression, LpModel, LpSolution
from .task import (State, TransitionSystem, goal_distances, iter_states, state_index,
                   strides)


class AbstractionError(ValueError):
    pass


@dataclass
class Projection:
    """Restriction of every state to a pattern of variables."""

    pattern: tuple[int, ...]
    domain_sizes: tuple[int, ...]
    abstract_states: tuple[tuple[int, ...], ...]
    initial: int
    goal: int
    # abstract state of every concrete state, by concrete state index
    state_map: np.ndarray = field(compare=False, repr=False)
    ts: TransitionSystem = field(compare=False, repr=False)

    @property
    def abstract_transitions(self) -> list[tuple[int, int, int]]:
        """One abstract transition per concrete transition (aligned with
        `ts.transitions`), built on access: neither LP builder reads them."""
        amap = self.state_map.tolist()
        return [(amap[src], op, amap[dst]) for src, op, dst in self.ts.transitions]

    def map_state(self, state: State) -> int:
        return state_index(tuple(state[var] for var in self.pattern), self.domain_sizes)

    def goal_distances(self, costs: list[float]) -> list[float]:
        """Abstract goal distances under signed per-concrete-transition costs."""
        return goal_distances(len(self.abstract_states), self.abstract_transitions,
                              {self.goal}, costs)


def project(ts: TransitionSystem, pattern) -> Projection:
    """Project the explicit system onto a (possibly empty) variable pattern."""
    pattern = tuple(sorted(pattern))
    doms = tuple(ts.domain_sizes[v] for v in pattern)
    abstract_states = tuple(iter_states(doms))
    # the index of each concrete state's restriction, as in Projection.map_state
    state_map = ts.state_array()[:, list(pattern)] @ np.array(strides(doms), dtype=np.int64)
    goals = set(state_map[sorted(ts.goals)].tolist())
    if len(goals) != 1:
        raise AbstractionError("projection needs a single abstract goal state "
                               "(task must be in transition normal form)")
    return Projection(pattern, doms, abstract_states, int(state_map[ts.initial]),
                      goals.pop(), state_map, ts)


def _h_name(abstraction: int, abstract_state: int) -> str:
    return f"h_a{abstraction}_s{abstract_state}"


@dataclass
class CostPartitioningLp:
    model: LpModel
    projections: list[Projection]
    # operator variant: column of the cost unknown of (operator, abstraction);
    # transition variant, which has no cost unknowns: h column of the
    # abstract state of (concrete state, abstraction)
    columns: np.ndarray
    per_transition: bool

    def set_state(self, state: State) -> None:
        """Make the objective the total abstract value of the given state."""
        terms: dict[str, float] = {}
        for ai, proj in enumerate(self.projections):
            name = _h_name(ai, proj.map_state(state))
            terms[name] = terms.get(name, 0.0) + 1.0
        self.model.set_objective("max", LinearExpression.build(0.0, terms))

    def extract_cost_functions(self, ts: TransitionSystem,
                               solution: LpSolution) -> list[list[float]]:
        """Per abstraction, one cost per concrete transition: the value of
        its operator's cost unknown, or in the transition variant the least
        feasible cost h(abstract source) - h(abstract target)."""
        x = np.array([solution.values[name] for name, _, _ in self.model.unknowns])
        table = ts.transition_array()
        if self.per_transition:
            return (x[self.columns[table[:, 0]]] - x[self.columns[table[:, 2]]]).T.tolist()
        return x[self.columns[table[:, 1]]].T.tolist()


def _add_h_unknowns(model: LpModel, projections: list[Projection]) -> list[int]:
    """Declare every abstract state's h unknown; returns the column of each
    projection's abstract state 0."""
    offsets = []
    for ai, proj in enumerate(projections):
        offsets.append(len(model.unknowns))
        for si in range(len(proj.abstract_states)):
            model.add_unknown(_h_name(ai, si))
    return offsets


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
    table = ts.transition_array()
    # on abstract self-loops the h terms cancel and add_rows drops them
    columns = np.hstack([state_columns[table[:, 0]], state_columns[table[:, 2]]])
    costs = np.array(ts.operator_costs, dtype=float)
    model.add_rows(np.arange(len(table) + 1) * columns.shape[1], columns.ravel(),
                   np.tile(np.repeat([1.0, -1.0], len(projections)), len(table)), "<=",
                   costs[table[:, 1]], [f"part_t{ti}" for ti in range(len(table))])
    built = CostPartitioningLp(model, projections, state_columns, per_transition=True)
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
    for ai in range(len(projections)):
        for op in range(n_ops):
            model.add_unknown(f"c_a{ai}_o{op}")
    # cost column of (abstraction ai, operator op), one row per operator
    cost_columns = first_cost + np.arange(len(projections)) * n_ops + np.arange(n_ops)[:, None]
    _add_goal_rows(model, projections, offsets)
    table = ts.transition_array()
    ops = table[:, 1]
    for ai, proj in enumerate(projections):
        asrc, adst = proj.state_map[table[:, 0]], proj.state_map[table[:, 2]]
        # first occurrence of each distinct (asrc, op, adst), in transition order
        n_abstract = len(proj.abstract_states)
        key = (asrc * n_ops + ops) * n_abstract + adst
        first = np.sort(np.unique(key, return_index=True)[1])
        asrc, op_ids, adst = asrc[first], ops[first], adst[first]
        _add_consistency_rows(
            model, offsets[ai] + asrc, offsets[ai] + adst, cost_columns[op_ids, ai],
            [f"cons_a{ai}_s{s}_o{o}_s{d}"
             for s, o, d in zip(asrc.tolist(), op_ids.tolist(), adst.tolist())])
    _add_partition_rows(model, cost_columns, ts.operator_costs,
                        [f"part_o{op}" for op in range(n_ops)])
    built = CostPartitioningLp(model, projections, cost_columns, per_transition=False)
    built.set_state(state)
    return built


def validate_partition(ts: TransitionSystem, cost_functions: list[list[float]]
                       ) -> tuple[bool, int | None]:
    """Check the partitioning inequality on every transition; returns the
    first violating transition index, if any."""
    for fn in cost_functions:
        if len(fn) != len(ts.transitions):
            raise AbstractionError("cost function does not cover every transition")
    for ti, (_, op, _) in enumerate(ts.transitions):
        total = sum(fn[ti] for fn in cost_functions)
        if total > ts.operator_costs[op] + FEASIBILITY_TOL:
            return False, ti
    return True, None


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
    goal_state = ts.states[next(iter(ts.goals))]
    goal_weight: dict[tuple[int, ...], float] = {}
    for pattern in patterns:
        pattern = tuple(sorted(pattern))
        goal_feature = Feature(tuple((v, goal_state[v]) for v in pattern))
        goal_weight[pattern] = w[fs.index_of(goal_feature)]
    shifted = []
    for i, f in enumerate(fs.features):
        shifted.append(w[i] - goal_weight[f.variables])
    return WeightFunction(shifted)
