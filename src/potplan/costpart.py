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

from .lp import LpModel
from .task import State, TransitionSystem, state_index, strides


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


def project(ts: TransitionSystem, pattern) -> Projection:
    """Project the explicit system onto a (possibly empty) variable pattern."""
    pattern = tuple(sorted(pattern))
    doms = tuple(ts.domain_sizes[v] for v in pattern)
    # the index of each concrete state's restriction, numbered as by `state_index`
    state_map = ts.states[:, list(pattern)] @ np.array(strides(doms), dtype=np.int64)
    goals = set(state_map[ts.goals].tolist())
    if len(goals) != 1:
        raise AbstractionError("projection needs a single abstract goal state "
                               "(task must be in transition normal form)")
    return Projection(pattern, doms, math.prod(doms), int(state_map[ts.initial]),
                      goals.pop(), state_map)


@dataclass
class CostPartitioningLp:
    model: LpModel
    domain_sizes: tuple[int, ...]
    # h column of the abstract state of (concrete state, abstraction)
    state_columns: np.ndarray

    def set_state(self, state: State) -> None:
        """Make the objective the total abstract value of the given state."""
        row = self.state_columns[state_index(state, self.domain_sizes)]
        self.model.set_objective(dict.fromkeys(row.tolist(), 1.0))


def _add_h_unknowns(model: LpModel, ts: TransitionSystem,
                    projections: list[Projection]) -> np.ndarray:
    """Declare every abstract state's h unknown and a row fixing h of each
    abstract goal state to 0; returns the (states x abstractions) table of
    the h column of each concrete state's abstract state."""
    offsets = np.cumsum([len(model.names)] + [proj.size for proj in projections])
    names = [f"h_a{ai}_s{si}" for ai, proj in enumerate(projections) for si in range(proj.size)]
    model.add_unknowns(names)
    maps = [offset + proj.state_map for offset, proj in zip(offsets, projections)]
    state_columns = np.array(maps, dtype=np.int64).reshape(len(projections), len(ts.states)).T
    model.add_rows(np.arange(len(projections) + 1), state_columns[ts.goals[0]],
                   np.ones(len(projections)), "=", 0.0,
                   [f"goal_a{ai}" for ai in range(len(projections))])
    return state_columns


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
    state_columns = _add_h_unknowns(model, ts, projections)
    table = ts.transitions
    # canonical rows: each abstraction's h columns as (min, max), none on self-loops
    src, dst = state_columns[table[:, 0]], state_columns[table[:, 2]]
    moved, sign = src != dst, np.where(src < dst, 1.0, -1.0)
    model.add_rows(np.concatenate(([0], np.cumsum(2 * moved.sum(axis=1)))),
                   np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=2)[moved].ravel(),
                   np.stack([sign, -sign], axis=2)[moved].ravel(), "<=",
                   ts.operator_costs[table[:, 1]], [f"part_t{ti}" for ti in range(len(table))])
    built = CostPartitioningLp(model, ts.domain_sizes, state_columns)
    built.set_state(state)
    return built


def build_ocp_lp(ts: TransitionSystem, patterns, state: State) -> CostPartitioningLp:
    """Operator cost partitioning: goal rows as in the transition variant,
    one cost unknown per (abstraction, operator), a consistency row
    h(asrc) - h(adst) - cost <= 0 per distinct abstract transition (parallel
    ones collapse; on self-loops only -cost remains) and per operator a row
    keeping its summed cost unknowns below its cost.  Rows are written
    canonical, as in the transition variant: the cost column follows every
    h column."""
    projections = [project(ts, p) for p in patterns]
    n_ops, table = len(ts.operator_costs), ts.transitions
    model = LpModel()
    state_columns = _add_h_unknowns(model, ts, projections)
    first_cost = len(model.names)
    names = [f"c_a{ai}_o{op}" for ai in range(len(projections)) for op in range(n_ops)]
    model.add_unknowns(names)
    # cost column of (abstraction ai, operator op), one row per operator
    cost_columns = first_cost + np.arange(len(projections)) * n_ops + np.arange(n_ops)[:, None]
    # (abstraction, transition) arrays, abstraction-major; an h column names
    # its abstraction, so keys of different abstractions never meet
    src, dst = state_columns[table[:, 0]].T, state_columns[table[:, 2]].T
    key = (src * n_ops + table[:, 1]) * first_cost + dst
    # first occurrence of each distinct (abstraction, asrc, op, adst), in transition order
    first = np.sort(np.unique(key, return_index=True)[1])
    ai, ti = np.divmod(first, len(table))
    src, op, dst = src.ravel()[first], table[ti, 1], dst.ravel()[first]
    # concrete state 0 (every value 0) lies in each projection's abstract state 0
    base = state_columns[0][ai]
    # canonical rows: the h columns as (min, max), none on self-loops, then the cost column
    moved, sign = src != dst, np.where(src < dst, 1.0, -1.0)
    written = np.stack([moved, moved, np.ones_like(moved)], axis=1)
    model.add_rows(np.concatenate(([0], np.cumsum(1 + 2 * moved))),
                   np.stack([np.minimum(src, dst), np.maximum(src, dst),
                             cost_columns[op, ai]], axis=1)[written],
                   np.stack([sign, -sign, np.full(len(first), -1.0)], axis=1)[written], "<=", 0.0,
                   [f"cons_a{a}_s{s}_o{o}_s{d}" for a, s, o, d in
                    zip(ai.tolist(), (src - base).tolist(), op.tolist(), (dst - base).tolist())])
    model.add_rows(np.arange(n_ops + 1) * len(projections), cost_columns.ravel(),
                   np.ones(cost_columns.size), "<=", ts.operator_costs,
                   [f"part_o{op}" for op in range(n_ops)])
    built = CostPartitioningLp(model, ts.domain_sizes, state_columns)
    built.set_state(state)
    return built


def all_patterns(n_variables: int) -> list[tuple[int, ...]]:
    """All variable patterns of size 1 and 2, in lexicographic order."""
    return [*itertools.combinations(range(n_variables), 1),
            *itertools.combinations(range(n_variables), 2)]
