"""Seeded planning tasks with a planted goal, and the benchmark's own oracles.

Nothing here imports potplan: the inputs and the reference answers must not
depend on the program under test (numpy and scipy's graph routines are used
for the explicit-state oracles).  A task is in transition normal form (every
operator mentions the same variables in precondition and effect, the goal is
one full state).  Its goal is the end state of a seeded forward random walk
from the initial state, so it is solvable by construction and the walk is a
plan whose cost bounds the optimum from above.  No explicit state space is
needed to build one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

State = tuple[int, ...]


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class Op:
    name: str
    pre: tuple[tuple[int, int], ...]  # (variable, value), sorted by variable
    eff: tuple[tuple[int, int], ...]  # same variables as pre
    cost: int


@dataclass(frozen=True)
class PlantedTask:
    domain_sizes: tuple[int, ...]
    operators: tuple[Op, ...]
    initial: State
    goal: State
    walk: tuple[int, ...]  # operator indices of the planted walk

    @property
    def walk_cost(self) -> int:
        return sum(self.operators[i].cost for i in self.walk)

    def walk_states(self) -> list[State]:
        states = [self.initial]
        for i in self.walk:
            states.append(successor(states[-1], self.operators[i]))
        return states


def var_name(var: int) -> str:
    return f"var{var}"


def value_name(val: int) -> str:
    return f"val{val}"


def applicable(state: State, op: Op) -> bool:
    return all(state[var] == val for var, val in op.pre)


def successor(state: State, op: Op) -> State:
    if not applicable(state, op):
        raise GenerationError(f"operator {op.name} is not applicable")
    result = list(state)
    for var, val in op.eff:
        result[var] = val
    return tuple(result)


def planted_task(seed: str, n_vars: int, dom: int, n_ops: int, scope: tuple[int, int],
                 max_cost: int, walk_len: int) -> PlantedTask:
    """One task drawn from `seed`.

    Every variable gets one operator per value that moves it to the next
    value, cyclically, at a cost of 1..max_cost.  The whole product state
    space is then strongly connected: no state is a dead end, so no weight is
    pushed to the LP's weight bound.  On top of these come `n_ops` operators
    over scope[0]..scope[1] variables with costs 0..max_cost; with a fixed
    scope the compact LPs of all tasks of one shape have equal size.  The goal
    is where a random walk of `walk_len` steps ends; draws are repeated
    (deterministically) until it ends away from the initial state.
    """
    for attempt in range(100):
        rng = random.Random(f"{seed}:{attempt}")
        ops = [Op(f"cyc{v}_{val}", ((v, val),), ((v, (val + 1) % dom),),
                  rng.randint(1, max_cost))
               for v in range(n_vars) for val in range(dom)]
        for i in range(n_ops):
            variables = sorted(rng.sample(range(n_vars), rng.randint(*scope)))
            pre = tuple((v, rng.randrange(dom)) for v in variables)
            eff = list((v, rng.randrange(dom)) for v in variables)
            if eff == list(pre):  # an operator must change something
                k = rng.randrange(len(variables))
                var, val = eff[k]
                eff[k] = (var, (val + 1 + rng.randrange(dom - 1)) % dom)
            ops.append(Op(f"op{i}", pre, tuple(eff), rng.randint(0, max_cost)))
        initial = tuple(rng.randrange(dom) for _ in range(n_vars))
        state, walk = initial, []
        for _ in range(walk_len):
            i = rng.choice([i for i, op in enumerate(ops) if applicable(state, op)])
            walk.append(i)
            state = successor(state, ops[i])
        if state != initial:
            return PlantedTask((dom,) * n_vars, tuple(ops), initial, state, tuple(walk))
    raise GenerationError(f"no walk left the initial state for seed {seed}")


def serialize_sas(task: PlantedTask) -> str:
    """Fast Downward translator format, version 3, with action costs."""
    out = ["begin_version", "3", "end_version", "begin_metric", "1", "end_metric",
           str(len(task.domain_sizes))]
    for var, dom in enumerate(task.domain_sizes):
        out += ["begin_variable", var_name(var), "-1", str(dom)]
        out += [value_name(val) for val in range(dom)]
        out.append("end_variable")
    out.append("0")
    out += ["begin_state", *map(str, task.initial), "end_state"]
    out += ["begin_goal", str(len(task.goal))]
    out += [f"{var} {val}" for var, val in enumerate(task.goal)]
    out.append("end_goal")
    out.append(str(len(task.operators)))
    for op in task.operators:
        out += ["begin_operator", op.name, "0", str(len(op.eff))]
        pre = dict(op.pre)
        out += [f"0 {var} {pre[var]} {val}" for var, val in op.eff]
        out += [str(op.cost), "end_operator"]
    out.append("0")
    return "\n".join(out) + "\n"


def random_triples(seed: str, n_vars: int, dom: int, count: int) -> list[tuple[tuple[int, int], ...]]:
    """Distinct conjunctions of three facts over distinct variables."""
    rng = random.Random(seed)
    seen: set[tuple[tuple[int, int], ...]] = set()
    out = []
    while len(out) < count:
        facts = tuple((v, rng.randrange(dom)) for v in sorted(rng.sample(range(n_vars), 3)))
        if facts not in seen:
            seen.add(facts)
            out.append(facts)
    return out


def format_conjunction(facts) -> str:
    return " & ".join(f"{var_name(var)}={value_name(val)}" for var, val in facts)


def parse_conjunction(text: str) -> tuple[tuple[int, int], ...]:
    """Inverse of format_conjunction, for the weight keys the program prints."""
    facts = []
    for part in text.split("&"):
        var, _, val = part.strip().partition("=")
        if not (var.startswith("var") and val.startswith("val")):
            raise ValueError(f"unexpected fact '{part}'")
        facts.append((int(var[3:]), int(val[3:])))
    return tuple(facts)


class Potential:
    """Evaluates a printed weight map on states."""

    def __init__(self, weights: dict[str, float]):
        self.terms = [(parse_conjunction(k), w) for k, w in weights.items()]

    def __call__(self, state: State) -> float:
        return sum(w for facts, w in self.terms
                   if all(state[var] == val for var, val in facts))


def state_index(state: State, domain_sizes: tuple[int, ...]) -> int:
    """Mixed-radix index with variable 0 most significant (the order in which
    the program enumerates explicit states)."""
    index = 0
    for val, dom in zip(state, domain_sizes):
        index = index * dom + val
    return index


class StateSpace:
    """Every state of a task as an array of values, and every transition as
    parallel arrays, built with digit comparisons on mixed-radix indices."""

    def __init__(self, task: PlantedTask):
        doms = np.array(task.domain_sizes, dtype=np.int64)
        strides = np.ones(len(doms), dtype=np.int64)
        for v in range(len(doms) - 2, -1, -1):
            strides[v] = strides[v + 1] * doms[v + 1]
        self.size = int(np.prod(doms))
        index = np.arange(self.size, dtype=np.int64)
        self.values = (index[:, None] // strides[None, :]) % doms[None, :]
        src, dst, op_ids = [], [], []
        for i, op in enumerate(task.operators):
            mask = np.ones(self.size, dtype=bool)
            shift = 0
            for var, val in op.pre:
                mask &= self.values[:, var] == val
            for (var, old), (_, new) in zip(op.pre, op.eff):
                shift += (new - old) * int(strides[var])
            s = index[mask]
            src.append(s)
            dst.append(s + shift)
            op_ids.append(np.full(len(s), i, dtype=np.int64))
        self.src = np.concatenate(src)
        self.dst = np.concatenate(dst)
        self.op = np.concatenate(op_ids)
        self.cost = np.array([op.cost for op in task.operators], dtype=float)[self.op]
        self.initial = state_index(task.initial, task.domain_sizes)
        self.goal = state_index(task.goal, task.domain_sizes)

    def _graph(self) -> csr_matrix:
        # Parallel transitions keep their cheapest cost; explicit zero-cost
        # entries stay edges for csgraph.
        key = self.src * self.size + self.dst
        order = np.lexsort((self.cost, key))
        key, cost = key[order], self.cost[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key, cost = key[first], cost[first]
        return csr_matrix((cost, (key // self.size, key % self.size)),
                          shape=(self.size, self.size))

    def distances_from_initial(self) -> np.ndarray:
        return dijkstra(self._graph(), directed=True, indices=self.initial)

    def goal_distances(self) -> np.ndarray:
        """Reverse Dijkstra: cost from every state to the goal (inf if none)."""
        return dijkstra(self._graph().T.tocsr(), directed=True, indices=self.goal)

    def potential(self, weights: dict[str, float]) -> np.ndarray:
        """A printed weight map evaluated on every state."""
        h = np.zeros(self.size)
        for key, w in weights.items():
            mask = np.ones(self.size, dtype=bool)
            for var, val in parse_conjunction(key):
                mask &= self.values[:, var] == val
            h[mask] += w
        return h


def cut_walk(task: PlantedTask, length: int) -> PlantedTask:
    """The same task with the walk cut to its first `length` steps; the goal
    moves to the walk's new end state."""
    return PlantedTask(task.domain_sizes, task.operators, task.initial,
                       task.walk_states()[length], task.walk[:length])
