"""SAS+ planning tasks: representation, parsing, state semantics, and exact oracles.

States are plain tuples of value indices (one per variable) and partial
assignments are dicts mapping variable id to value index; the explicit
transition system holds all states as the rows of one array.  All objects are
treated as immutable after construction and can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

State = tuple[int, ...]
PartialAssignment = dict[int, int]

DEFAULT_STATE_CAP = 2_000_000


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
        for var, val in self.goal.items():
            if state[var] != val:
                return False
        return True


@dataclass
class TransitionSystem:
    """Explicit weighted transition system over ALL states of a task, as arrays.

    Enumerates the full product state space, not only reachable states,
    because consistency of a heuristic quantifies over every applicable
    (state, operator) pair.
    """

    # (state, variable) value indices, in lexicographic order, variable 0
    # most significant
    states: np.ndarray
    # (transition, 3) rows (source, operator, target), by source, then operator
    transitions: np.ndarray
    initial: int
    goals: np.ndarray  # indices of the goal states, increasing
    operator_costs: np.ndarray  # float cost of each operator
    domain_sizes: tuple[int, ...]


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


class SuccessorGenerator:
    """The applicable operators of a task's states, indexed by precondition.

    Each operator id is filed under the operator's first precondition fact
    (lowest variable); operators without a precondition are applicable
    everywhere.  A state therefore looks only at the operators filed under
    one of its own facts and checks just the rest of their preconditions,
    instead of testing every operator.  Built once per task; the task must
    not change after.

    Per operator id, `shift` is how far the operator moves `state_index`:
    Σ (eff − pre)·stride over the effect variables with a precondition, a
    constant, to which each (variable, value, stride) in `free`, one per
    effect variable without a precondition (none in transition normal
    form), adds (value − state[variable])·stride.  `effect` holds the
    (variable, value) effects and `cost` the cost.
    """

    def __init__(self, task: Task):
        # Per fact, the ids of the operators filed under it: those whose
        # precondition has no other fact, which need no check, and (rest of
        # the precondition, id) for the others.
        self._unconditional: list[int] = []
        self._by_fact: list[list[tuple[list, list]]] = [
            [([], []) for _ in range(var.domain_size)] for var in task.variables]
        self.shift, self.free, self.effect, self.cost = [], [], [], []
        place = strides(task.domain_sizes)
        for op_id, op in enumerate(task.operators):
            self.shift.append(sum((val - op.pre[var]) * place[var]
                                  for var, val in op.eff.items() if var in op.pre))
            self.free.append(tuple((var, val, place[var])
                                   for var, val in op.eff.items() if var not in op.pre))
            self.effect.append(tuple(op.eff.items()))
            self.cost.append(op.cost)
            pre = sorted(op.pre.items())
            if not pre:
                self._unconditional.append(op_id)
                continue
            (var, val), rest = pre[0], tuple(pre[1:])
            unchecked, checked = self._by_fact[var][val]
            if rest:
                checked.append((rest, op_id))
            else:
                unchecked.append(op_id)

    def applicable(self, state: State) -> list[int]:
        """The ids of the operators applicable in state, increasing."""
        result = list(self._unconditional)
        for by_value, value in zip(self._by_fact, state):
            unchecked, checked = by_value[value]
            result += unchecked
            for rest, op_id in checked:
                for var, val in rest:
                    if state[var] != val:
                        break
                else:
                    result.append(op_id)
        result.sort()
        return result


def state_index(state: State, domain_sizes: tuple[int, ...]) -> int:
    """Position of the state in lexicographic order, variable 0 most
    significant."""
    index = 0
    for val, dom in zip(state, domain_sizes):
        index = index * dom + val
    return index


def strides(domain_sizes: tuple[int, ...]) -> list[int]:
    """How far `state_index` moves per unit of each variable's value."""
    return [math.prod(domain_sizes[var + 1:]) for var in range(len(domain_sizes))]


def _matching(states: np.ndarray, assignment: PartialAssignment) -> np.ndarray:
    """Mask of the states that agree with the partial assignment."""
    mask = np.ones(len(states), dtype=bool)
    for var, val in assignment.items():
        mask &= states[:, var] == val
    return mask


def build_transition_system(task: Task, state_cap: int = DEFAULT_STATE_CAP) -> TransitionSystem:
    """Materialize the explicit transition system over all states of the task."""
    count = task.state_count()
    if count > state_cap:
        raise StateSpaceTooLargeError(count, state_cap)
    doms = task.domain_sizes
    # (count, not -1: a task without variables has one empty state)
    states = np.indices(doms, dtype=np.int64).reshape(len(doms), count).T
    place = strides(doms)
    rows = [np.zeros((0, 3), dtype=np.int64)]
    for op_id, op in enumerate(task.operators):
        src = np.flatnonzero(_matching(states, op.pre))
        # target index = source index + sum of (eff - value) * stride over the effects
        dst = src.copy()
        for var, val in op.eff.items():
            dst += (val - states[src, var]) * place[var]
        rows.append(np.stack([src, np.full_like(src, op_id), dst], axis=1))
    transitions = np.concatenate(rows)
    # per operator the sources increase, so a stable sort by source orders
    # the rows by source, then operator
    transitions = transitions[np.argsort(transitions[:, 0], kind="stable")]
    return TransitionSystem(
        states=states,
        transitions=transitions,
        initial=state_index(task.initial_state, doms),
        goals=np.flatnonzero(_matching(states, task.goal)),
        operator_costs=np.array([op.cost for op in task.operators], dtype=float),
        domain_sizes=doms,
    )


def exact_goal_distances(ts: TransitionSystem) -> np.ndarray:
    """Distance under the operator costs from every state to the nearest
    goal, +inf where no goal is reachable: Dijkstra on the reversed graph."""
    n, transitions = len(ts.states), ts.transitions
    costs = ts.operator_costs[transitions[:, 1]]
    # Reversed edges target -> source, the cheapest of each parallel group
    # first; building the CSR matrix directly keeps that one (a COO matrix
    # would sum parallel edges) and keeps explicit zero costs as edges.
    key = transitions[:, 2] * n + transitions[:, 0]
    order = np.lexsort((costs, key))
    first = order[np.unique(key[order], return_index=True)[1]]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(transitions[first, 2], minlength=n))))
    graph = csr_matrix((costs[first], transitions[first, 0], indptr), shape=(n, n))
    return dijkstra(graph, indices=ts.goals, min_only=True)


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
    are taken to be 1.  Feature strings and weight keys name facts by these
    names, so a variable name used twice, a value name used twice within
    its variable, a variable name with '&' or '=' and a value name with '&'
    are refused.
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

    variables, names = [], set()
    for var_id in range(cur.next_int("variable count")):
        cur.expect("begin_variable")
        name = cur.next()
        if name in names:
            raise SasParseError(f"variable name '{name}' used twice", cur.line_no)
        for char in "&=":
            if char in name:
                raise SasParseError(f"variable name '{name}' contains '{char}'", cur.line_no)
        names.add(name)
        axiom_layer = cur.next_int("axiom layer")
        if axiom_layer != -1:
            raise UnsupportedFeatureError(
                f"variable {name} is derived (axiom layer {axiom_layer})", cur.line_no)
        size = cur.next_int("domain size")
        if size < 1:
            raise SasParseError(f"variable {name}: empty domain", cur.line_no)
        values: dict[str, None] = {}  # value names in order
        for _ in range(size):
            value = cur.next()
            if value in values:
                raise SasParseError(f"variable {name}: value name '{value}' used twice",
                                    cur.line_no)
            if "&" in value:
                raise SasParseError(f"variable {name}: value name '{value}' contains '&'",
                                    cur.line_no)
            values[value] = None
        cur.expect("end_variable")
        variables.append(Variable(var_id, name, size, tuple(values)))

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
