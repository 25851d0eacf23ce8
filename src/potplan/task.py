"""SAS+ planning tasks: representation, parsing, state semantics, and exact oracles.

States are plain tuples of value indices (one per variable) and partial
assignments are dicts mapping variable id to value index.  All objects are
treated as immutable after construction and can be shared freely.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

State = tuple[int, ...]
PartialAssignment = dict[int, int]

DEFAULT_STATE_CAP = 2_000_000

# Minimum improvement for a Bellman-Ford relaxation; guards against declaring
# a negative cycle from float noise in LP-extracted cost functions.
RELAX_EPS = 1e-9


class TaskError(ValueError):
    """Base class for task-level errors."""


class SasParseError(TaskError):
    """Malformed SAS document; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedFeatureError(SasParseError):
    """Valid SAS construct that this task model deliberately rejects."""


class NotApplicableError(TaskError):
    """Operator applied in a state that violates its precondition."""


class StateSpaceTooLargeError(TaskError):
    def __init__(self, state_count: int, cap: int):
        super().__init__(f"state space has {state_count} states, cap is {cap}")
        self.state_count = state_count
        self.cap = cap


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    domain_size: int
    value_names: tuple[str, ...]

    def __post_init__(self):
        if self.domain_size < 1:
            raise TaskError(f"variable {self.name}: empty domain")
        if len(self.value_names) != self.domain_size:
            raise TaskError(f"variable {self.name}: {len(self.value_names)} value names "
                            f"for domain size {self.domain_size}")


@dataclass
class Operator:
    name: str
    pre: PartialAssignment
    eff: PartialAssignment
    cost: int

    def __post_init__(self):
        if self.cost < 0:
            raise TaskError(f"operator {self.name}: negative cost {self.cost}")

    @property
    def variables(self) -> frozenset[int]:
        """vars of the operator; in TNF pre and eff mention the same set."""
        return frozenset(self.pre) | frozenset(self.eff)


@dataclass
class Task:
    variables: list[Variable]
    operators: list[Operator]
    initial_state: State
    goal: PartialAssignment

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        n = len(self.variables)
        for i, var in enumerate(self.variables):
            if var.id != i:
                raise TaskError(f"variable {var.name}: id {var.id} at position {i}")
        if len(self.initial_state) != n:
            raise TaskError("initial state does not assign every variable")
        self._check_assignment(dict(enumerate(self.initial_state)), "initial state")
        self._check_assignment(self.goal, "goal")
        for op in self.operators:
            self._check_assignment(op.pre, f"operator {op.name} precondition")
            self._check_assignment(op.eff, f"operator {op.name} effect")
            if not op.eff:
                raise TaskError(f"operator {op.name}: empty effect")

    def _check_assignment(self, assignment: PartialAssignment, what: str) -> None:
        for var, val in assignment.items():
            if not 0 <= var < len(self.variables):
                raise TaskError(f"{what}: unknown variable id {var}")
            if not 0 <= val < self.variables[var].domain_size:
                raise TaskError(f"{what}: value {val} out of range for "
                                f"variable {self.variables[var].name}")

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(v.domain_size for v in self.variables)

    def state_count(self) -> int:
        return math.prod(self.domain_sizes)

    def is_goal_state(self, state: State) -> bool:
        return all(state[var] == val for var, val in self.goal.items())


@dataclass
class TransitionSystem:
    """Explicit weighted transition system over ALL states of a task.

    Enumerates the full product state space, not only reachable states,
    because consistency of a heuristic quantifies over every applicable
    (state, operator) pair.
    """

    states: tuple[State, ...]
    transitions: list[tuple[int, int, int]]  # (source index, operator id, target index)
    initial: int
    goals: frozenset[int]
    operator_costs: tuple[int, ...]
    domain_sizes: tuple[int, ...]

    def default_costs(self) -> list[float]:
        return [float(self.operator_costs[op]) for _, op, _ in self.transitions]

    def state_array(self) -> np.ndarray:
        """States as a (state, variable) matrix of value indices."""
        return np.array(self.states, dtype=np.int64).reshape(
            len(self.states), len(self.domain_sizes))

    def transition_array(self) -> np.ndarray:
        """Transitions as a (transition, 3) matrix of (source, operator, target)."""
        return np.array(self.transitions, dtype=np.int64).reshape(len(self.transitions), 3)


def is_applicable(op: Operator, state: State) -> bool:
    return all(state[var] == val for var, val in op.pre.items())


def successor(state: State, op: Operator) -> State:
    """Apply op in state; raises NotApplicableError if the precondition fails."""
    if not is_applicable(op, state):
        raise NotApplicableError(f"operator {op.name} not applicable")
    result = list(state)
    for var, val in op.eff.items():
        result[var] = val
    return tuple(result)


def iter_states(domain_sizes: tuple[int, ...]):
    """All states in lexicographic order (variable 0 most significant)."""
    n = len(domain_sizes)
    state = [0] * n
    while True:
        yield tuple(state)
        i = n - 1
        while i >= 0:
            state[i] += 1
            if state[i] < domain_sizes[i]:
                break
            state[i] = 0
            i -= 1
        if i < 0:
            return


def state_index(state: State, domain_sizes: tuple[int, ...]) -> int:
    index = 0
    for val, dom in zip(state, domain_sizes):
        index = index * dom + val
    return index


def build_transition_system(task: Task, state_cap: int = DEFAULT_STATE_CAP) -> TransitionSystem:
    """Materialize the explicit transition system over all states of the task."""
    count = task.state_count()
    if count > state_cap:
        raise StateSpaceTooLargeError(count, state_cap)
    doms = task.domain_sizes
    states = tuple(iter_states(doms))
    transitions: list[tuple[int, int, int]] = []
    for si, s in enumerate(states):
        for oi, op in enumerate(task.operators):
            if is_applicable(op, s):
                t = list(s)
                for var, val in op.eff.items():
                    t[var] = val
                transitions.append((si, oi, state_index(tuple(t), doms)))
    goals = frozenset(si for si, s in enumerate(states) if task.is_goal_state(s))
    return TransitionSystem(
        states=states,
        transitions=transitions,
        initial=state_index(task.initial_state, doms),
        goals=goals,
        operator_costs=tuple(op.cost for op in task.operators),
        domain_sizes=doms,
    )


def exact_goal_distances(ts: TransitionSystem, costs=None) -> list[float]:
    """Distance from every state to the nearest goal under the given costs.

    `costs` is one real per transition (defaults to operator costs).  With
    non-negative costs this is a reverse Dijkstra; with negative costs a
    Bellman-Ford run with negative-cycle detection.  States that cannot reach
    a goal map to +inf; states that can reach a negative-cost cycle from which
    a goal is reachable map to -inf.
    """
    if costs is None:
        costs = ts.default_costs()
    if len(costs) != len(ts.transitions):
        raise TaskError(f"expected {len(ts.transitions)} transition costs, got {len(costs)}")
    n = len(ts.states)
    if all(c >= 0 for c in costs):
        return _dijkstra_to_goal(n, ts.transitions, ts.goals, costs)
    return _bellman_ford_to_goal(n, ts.transitions, ts.goals, costs)


def _dijkstra_to_goal(n, transitions, goals, costs) -> list[float]:
    reverse: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (src, _, dst), c in zip(transitions, costs):
        reverse[dst].append((src, c))
    dist = [math.inf] * n
    heap = []
    for g in goals:
        dist[g] = 0.0
        heap.append((0.0, g))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, c in reverse[u]:
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _bellman_ford_to_goal(n, transitions, goals, costs) -> list[float]:
    dist = [math.inf] * n
    for g in goals:
        dist[g] = 0.0
    edges = [(src, dst, c) for (src, _, dst), c in zip(transitions, costs)]
    for _ in range(max(n - 1, 1)):
        changed = False
        for src, dst, c in edges:
            if dist[dst] < math.inf and c + dist[dst] < dist[src] - RELAX_EPS:
                dist[src] = c + dist[dst]
                changed = True
        if not changed:
            break
    # Any edge still improving feeds off a negative cycle that reaches a goal;
    # everything that can reach such an edge diverges to -inf.
    tainted = set()
    for src, dst, c in edges:
        if dist[dst] < math.inf and c + dist[dst] < dist[src] - RELAX_EPS:
            tainted.add(src)
    if tainted:
        reverse: list[list[int]] = [[] for _ in range(n)]
        for src, dst, _ in edges:
            reverse[dst].append(src)
        stack = list(tainted)
        while stack:
            u = stack.pop()
            for v in reverse[u]:
                if v not in tainted:
                    tainted.add(v)
                    stack.append(v)
        for u in tainted:
            dist[u] = -math.inf
    return dist


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos  # 1-based number of the line just consumed

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise SasParseError("unexpected end of document", self.pos + 1)
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    def expect(self, token: str) -> None:
        line = self.next()
        if line != token:
            raise SasParseError(f"expected '{token}', found '{line}'", self.line_no)

    def next_int(self, what: str) -> int:
        line = self.next()
        try:
            return int(line)
        except ValueError:
            raise SasParseError(f"expected {what} (an integer), found '{line}'",
                                self.line_no) from None

    def next_ints(self, count: int, what: str) -> list[int]:
        line = self.next()
        parts = line.split()
        if len(parts) != count:
            raise SasParseError(f"expected {count} integers for {what}, found '{line}'",
                                self.line_no)
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise SasParseError(f"expected integers for {what}, found '{line}'",
                                self.line_no) from None


def parse_sas(text: str) -> Task:
    """Parse a Fast Downward translator document (version 3) into a Task.

    Mutex sections are read and ignored.  Axioms and conditional effects are
    rejected as unsupported.  When the metric flag is 0 all operator costs
    are taken to be 1.
    """
    cur = _Cursor(text)
    cur.expect("begin_version")
    version = cur.next_int("version")
    if version != 3:
        raise UnsupportedFeatureError(f"unsupported SAS version {version}", cur.line_no)
    cur.expect("end_version")
    cur.expect("begin_metric")
    metric = cur.next_int("metric flag")
    if metric not in (0, 1):
        raise SasParseError(f"metric flag must be 0 or 1, found {metric}", cur.line_no)
    cur.expect("end_metric")

    variables = []
    for var_id in range(cur.next_int("variable count")):
        cur.expect("begin_variable")
        name = cur.next()
        axiom_layer = cur.next_int("axiom layer")
        if axiom_layer != -1:
            raise UnsupportedFeatureError(
                f"variable {name} is derived (axiom layer {axiom_layer})", cur.line_no)
        size = cur.next_int("domain size")
        if size < 1:
            raise SasParseError(f"variable {name}: empty domain", cur.line_no)
        values = tuple(cur.next() for _ in range(size))
        cur.expect("end_variable")
        variables.append(Variable(var_id, name, size, values))

    def check_fact(var: int, val: int, what: str) -> None:
        if not 0 <= var < len(variables):
            raise SasParseError(f"{what}: unknown variable {var}", cur.line_no)
        if not 0 <= val < variables[var].domain_size:
            raise SasParseError(
                f"{what}: value {val} out of range for variable {variables[var].name}",
                cur.line_no)

    for _ in range(cur.next_int("mutex group count")):
        cur.expect("begin_mutex_group")
        for _ in range(cur.next_int("mutex fact count")):
            cur.next()
        cur.expect("end_mutex_group")

    cur.expect("begin_state")
    initial = []
    for var_id in range(len(variables)):
        val = cur.next_int("initial state value")
        check_fact(var_id, val, "initial state")
        initial.append(val)
    cur.expect("end_state")

    cur.expect("begin_goal")
    goal: PartialAssignment = {}
    for _ in range(cur.next_int("goal fact count")):
        var, val = cur.next_ints(2, "goal fact")
        check_fact(var, val, "goal")
        if var in goal:
            raise SasParseError(f"goal assigns variable {var} twice", cur.line_no)
        goal[var] = val
    cur.expect("end_goal")

    operators = []
    for _ in range(cur.next_int("operator count")):
        cur.expect("begin_operator")
        name = cur.next()
        pre: PartialAssignment = {}
        eff: PartialAssignment = {}
        for _ in range(cur.next_int("prevail count")):
            var, val = cur.next_ints(2, "prevail fact")
            check_fact(var, val, f"operator {name} prevail")
            if var in pre:
                raise SasParseError(f"operator {name}: variable {var} constrained twice",
                                    cur.line_no)
            pre[var] = val
        for _ in range(cur.next_int("effect count")):
            line = cur.next()
            try:
                parts = [int(p) for p in line.split()]
            except ValueError:
                raise SasParseError(f"expected integers on effect line, found '{line}'",
                                    cur.line_no) from None
            if not parts:
                raise SasParseError("empty effect line", cur.line_no)
            if parts[0] != 0:
                raise UnsupportedFeatureError(
                    f"operator {name}: conditional effects are not supported", cur.line_no)
            if len(parts) != 4:
                raise SasParseError(f"expected 4 integers on effect line, found '{line}'",
                                    cur.line_no)
            _, var, old, new = parts
            if var in eff or var in pre:
                raise SasParseError(f"operator {name}: variable {var} constrained twice",
                                    cur.line_no)
            if old != -1:
                check_fact(var, old, f"operator {name} effect precondition")
                pre[var] = old
            check_fact(var, new, f"operator {name} effect")
            eff[var] = new
        cost = cur.next_int("operator cost")
        if cost < 0:
            raise SasParseError(f"operator {name}: negative cost {cost}", cur.line_no)
        cur.expect("end_operator")
        operators.append(Operator(name, pre, eff, cost if metric == 1 else 1))

    axioms = cur.next_int("axiom count")
    if axioms != 0:
        raise UnsupportedFeatureError(f"axioms are not supported ({axioms} declared)",
                                      cur.line_no)
    return Task(variables, operators, tuple(initial), goal)


def serialize_sas(task: Task) -> str:
    """Write a Task back to the Fast Downward document format.

    Always writes metric 1 so that parse_sas(serialize_sas(task)) == task.
    """
    out = ["begin_version", "3", "end_version", "begin_metric", "1", "end_metric"]
    out.append(str(len(task.variables)))
    for var in task.variables:
        out += ["begin_variable", var.name, "-1", str(var.domain_size)]
        out += list(var.value_names)
        out.append("end_variable")
    out.append("0")  # mutex groups
    out.append("begin_state")
    out += [str(v) for v in task.initial_state]
    out.append("end_state")
    out.append("begin_goal")
    out.append(str(len(task.goal)))
    out += [f"{var} {val}" for var, val in sorted(task.goal.items())]
    out.append("end_goal")
    out.append(str(len(task.operators)))
    for op in task.operators:
        out += ["begin_operator", op.name]
        prevail = sorted((v, val) for v, val in op.pre.items() if v not in op.eff)
        out.append(str(len(prevail)))
        out += [f"{var} {val}" for var, val in prevail]
        effects = sorted(op.eff.items())
        out.append(str(len(effects)))
        out += [f"0 {var} {op.pre.get(var, -1)} {val}" for var, val in effects]
        out.append(str(op.cost))
        out.append("end_operator")
    out.append("0")  # axioms
    return "\n".join(out) + "\n"
