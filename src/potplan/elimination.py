"""Symbolic bucket elimination over linear expressions, and the
context-dependency graphs and scoped functions of an operator that it runs on.

An operator's change in potential sums one function per feature touching it,
over the feature's variables outside the operator; a context-independent
feature's function has the empty scope, a constant of the final sum.

The eliminator turns a set of scoped functions (tables mapping partial
assignments to linear expressions) into a system of max-equations over fresh
auxiliary unknowns; relaxing each equation to one-sided `aux >= candidate`
rows yields linear constraints whose projection onto the base unknowns is
unchanged, provided no auxiliary unknown enters the objective.  The final
equation only sums what is left; it gets no unknown, its candidate stands for
the system's value in the LP.  `direct2d` assembles the potential LP from
these pieces; for features of dimension at most 2 every context-dependency
graph has no edges and elimination yields the compact binary model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .features import FeatureError, FeatureSet
from .lp import ZERO, LinearExpression, Row, evaluate
from .task import Operator, Task


class OrderingError(ValueError):
    pass


@dataclass
class ScopedFunction:
    """Table over assignments to the scope; absent entries mean zero."""

    scope: tuple[int, ...]  # sorted variable ids
    table: dict[tuple[int, ...], LinearExpression]

    def __post_init__(self):
        if tuple(sorted(self.scope)) != self.scope:
            raise OrderingError(f"scope must be sorted, got {self.scope}")

    def value(self, assignment: dict[int, int]) -> LinearExpression:
        key = tuple(assignment[v] for v in self.scope)
        return self.table.get(key, ZERO)


@dataclass
class ScopedFunctionSet:
    """Functions plus the domains of every variable they may range over."""

    domains: dict[int, int]  # variable id -> domain size
    functions: list[ScopedFunction] = field(default_factory=list)


@dataclass
class AuxEquation:
    name: str
    candidates: list[LinearExpression]


@dataclass
class EquationSystem:
    """aux_i = max over its candidates; candidates only reference base
    unknowns and earlier aux names.  The last equation defines the result;
    `bucket_eliminate` makes it the sum of what elimination leaves, a single
    candidate."""

    equations: list[AuxEquation]

    @property
    def result_name(self) -> str:
        return self.equations[-1].name

    def evaluate(self, base: dict[str, float]) -> tuple[dict[str, float], float]:
        """Bottom-up evaluation; returns all aux values and the result."""
        values = dict(base)
        aux_values = {}
        for eq in self.equations:
            v = max(evaluate(e, values) for e in eq.candidates)
            values[eq.name] = v
            aux_values[eq.name] = v
        return aux_values, aux_values[self.result_name]


@dataclass(frozen=True)
class DependencyGraph:
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # pairs (u, v) with u < v

    def __post_init__(self):
        seen = set(self.vertices)
        for u, v in self.edges:
            if u >= v or u not in seen or v not in seen:
                raise OrderingError(f"bad edge ({u}, {v})")

    def neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _require_tnf_operator(op: Operator) -> None:
    if op.pre.keys() != op.eff.keys():
        raise FeatureError(f"operator {op.name} is not in transition normal form")


def _split(task: Task, fs: FeatureSet, op_index: int):
    """(feature index, variables outside the operator, their values, change)
    of every feature sharing a variable with the operator, in feature order.
    The change is that of the facts inside the operator, [inside <= pre] -
    [inside <= eff]; a context-independent feature has no outside variables."""
    op = task.operators[op_index]
    _require_tnf_operator(op)
    pre, eff, features = op.pre, op.eff, fs.features
    for i in fs.touching(eff):
        scope, values = [], []
        in_pre = in_eff = True
        for var, val in features[i].facts:
            if var in eff:
                in_pre = in_pre and pre[var] == val
                in_eff = in_eff and eff[var] == val
            else:
                scope.append(var)
                values.append(val)
        yield i, tuple(scope), tuple(values), in_pre - in_eff


def scoped_functions_for_operator(task: Task, fs: FeatureSet, op_index: int,
                                  weight_vars: dict[int, str]) -> ScopedFunctionSet:
    """One function per feature sharing a variable with the operator: its
    scope is the feature's variables outside the operator (empty for a
    context-independent feature, so elimination adds it to the final sum),
    and the single nonzero entry (if any) is the feature's weight unknown
    (named by `weight_vars`, feature index -> name) scaled by the change of
    the facts inside the operator."""
    op_vars = task.operators[op_index].eff
    domains = {v.id: v.domain_size for v in task.variables if v.id not in op_vars}
    functions = []
    for i, scope, values, change in _split(task, fs, op_index):
        table = {}
        if change:
            table[values] = LinearExpression(0.0, ((weight_vars[i], float(change)),))
        functions.append(ScopedFunction(scope, table))
    return ScopedFunctionSet(domains, functions)


def context_dependency_graph(task: Task, fs: FeatureSet, op_index: int) -> DependencyGraph:
    """Vertices are all task variables; an edge joins two non-operator
    variables that co-occur outside the operator in some feature touching it."""
    edges = set()
    for _, scope, _, _ in _split(task, fs, op_index):
        edges.update(itertools.combinations(scope, 2))
    return DependencyGraph(tuple(v.id for v in task.variables), frozenset(edges))


def dependency_graph(psi: ScopedFunctionSet) -> DependencyGraph:
    """Graph over the declared variables joining any two sharing a scope."""
    edges = set()
    for fn in psi.functions:
        for u, v in itertools.combinations(fn.scope, 2):
            edges.add((u, v))
    return DependencyGraph(tuple(sorted(psi.domains)), frozenset(edges))


def min_fill_order(graph: DependencyGraph) -> list[int]:
    """Greedy min-fill ordering, smallest-id tie-break.

    The returned order is elimination-compatible: bucket elimination (and the
    induced-width procedure) consume it back to front, so the greedily chosen
    first victim sits at the end.
    """
    adj = graph.neighbors()
    eliminated = []
    remaining = set(graph.vertices)
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            neighbors = adj[v]
            fill = sum(1 for a, b in itertools.combinations(sorted(neighbors), 2)
                       if b not in adj[a])
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        for a, b in itertools.combinations(sorted(adj[best]), 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in adj[best]:
            adj[u].discard(best)
        remaining.discard(best)
        eliminated.append(best)
    return list(reversed(eliminated))


def induced_width(graph: DependencyGraph, order: list[int]) -> int:
    """Maximum parent count in the induced graph along the order: process
    vertices back to front, connecting the earlier-ordered neighbors of each."""
    if set(order) != set(graph.vertices) or len(order) != len(graph.vertices):
        raise OrderingError("order must list every vertex exactly once")
    position = {v: i for i, v in enumerate(order)}
    adj = graph.neighbors()
    width = 0
    for v in reversed(order):
        parents = sorted(u for u in adj[v] if position[u] < position[v])
        width = max(width, len(parents))
        for a, b in itertools.combinations(parents, 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def _assignment_key(scope: tuple[int, ...], assignment: dict[int, int]) -> str:
    return "_".join(f"v{var}.{assignment[var]}" for var in scope)


def bucket_eliminate(psi: ScopedFunctionSet, order: list[int],
                     prefix: str = "z") -> EquationSystem:
    """Generate the max-equation system whose result equals the maximum, over
    all assignments, of the summed function values.

    Processes the order back to front.  Each processed variable's bucket
    holds every function whose scope has that variable as its latest; the
    bucket is condensed into one fresh aux unknown per assignment to the
    remaining scope, named `{prefix}_v{var}` plus `__{assignment}` when that
    scope is not empty.  Over a non-empty remaining scope, assignments whose
    candidates are all identically zero are skipped (their value is the zero
    expression, and a function left without entries is dropped); over an
    empty one the unknown is kept even then, so at width 0 every variable
    paired with the operator has its `aux >= 0` rows, as in the binary model.
    Variables with empty buckets are skipped entirely.  The final
    equation, `{prefix}_result`, sums the scope-free functions; with no
    functions at all it degenerates to max{0}.
    """
    scope_vars = set()
    for fn in psi.functions:
        scope_vars.update(fn.scope)
    undeclared = scope_vars - set(psi.domains)
    if undeclared:
        raise OrderingError(f"scope variables without domains: {sorted(undeclared)}")
    missing = scope_vars - set(order)
    if missing:
        raise OrderingError(f"ordering misses scope variables {sorted(missing)}")
    position = {v: i for i, v in enumerate(order)}

    buckets: dict[int, list[ScopedFunction]] = {v: [] for v in order}
    ground: list[ScopedFunction] = []  # empty-scope functions

    def place(fn: ScopedFunction) -> None:
        if not fn.scope:
            ground.append(fn)
        else:
            buckets[max(fn.scope, key=position.__getitem__)].append(fn)

    for fn in psi.functions:
        place(fn)

    equations: list[AuxEquation] = []
    for var in reversed(order):
        bucket = buckets[var]
        if not bucket:
            continue
        new_scope = tuple(sorted(
            {u for fn in bucket for u in fn.scope} - {var}))
        table: dict[tuple[int, ...], LinearExpression] = {}
        scope_domains = [range(psi.domains[u]) for u in new_scope]
        for values in itertools.product(*scope_domains):
            assignment = dict(zip(new_scope, values))
            candidates = []
            for x in range(psi.domains[var]):
                assignment[var] = x
                candidates.append(_sum(fn.value(assignment) for fn in bucket))
            del assignment[var]
            if new_scope and all(c.is_zero() for c in candidates):
                continue  # table entry stays absent (zero)
            suffix = _assignment_key(new_scope, assignment)
            name = f"{prefix}_v{var}" + (f"__{suffix}" if suffix else "")
            equations.append(AuxEquation(name, candidates))
            table[tuple(values)] = LinearExpression.term(name)
        if table:
            place(ScopedFunction(new_scope, table))

    total = _sum(fn.table.get((), ZERO) for fn in ground)
    equations.append(AuxEquation(f"{prefix}_result", [total]))
    return EquationSystem(equations)


def _sum(expressions) -> LinearExpression:
    """Sum of linear expressions, built once."""
    constant = 0.0
    terms: dict[str, float] = {}
    for expression in expressions:
        constant += expression.constant
        for name, coef in expression.terms:
            terms[name] = terms.get(name, 0.0) + coef
    return LinearExpression.build(constant, terms)


@dataclass
class LpPieces:
    aux_unknowns: list[str]
    rows: list[Row]
    result: LinearExpression  # what stands for the system's result in the LP


def to_lp_constraints(system: EquationSystem) -> LpPieces:
    """One fresh unknown per equation but the last, and one row
    `aux >= candidate` per candidate, named `{aux}.{j}` for candidate j (the
    eliminated variable's value).  An equation whose single candidate is a
    bare earlier aux unknown becomes an alias instead of an unknown and a
    row.  The last equation gets no unknown either: its single candidate,
    aliases substituted, is returned as `result`."""
    if not system.equations:
        return LpPieces([], [], ZERO)
    *eliminated, final = system.equations
    if len(final.candidates) != 1:
        raise ValueError(f"result equation '{final.name}' needs exactly one "
                         f"candidate, has {len(final.candidates)}")
    aliases: dict[str, LinearExpression] = {}
    declared: set[str] = set()
    unknowns: list[str] = []
    rows: list[Row] = []
    for eq in eliminated:
        candidates = [_inline(c, aliases) for c in eq.candidates]
        if len(candidates) == 1:
            c = candidates[0]
            if c.constant == 0.0 and len(c.terms) == 1 and \
                    c.terms[0][1] == 1.0 and c.terms[0][0] in declared:
                aliases[eq.name] = c
                continue
        declared.add(eq.name)
        unknowns.append(eq.name)
        for j, c in enumerate(candidates):
            terms = {name: -coef for name, coef in c.terms}
            terms[eq.name] = terms.get(eq.name, 0.0) + 1.0
            rows.append(Row(LinearExpression.build(0.0, terms), ">=", c.constant,
                            f"{eq.name}.{j}"))
    return LpPieces(unknowns, rows, _inline(final.candidates[0], aliases))


def _inline(expression: LinearExpression,
            aliases: dict[str, LinearExpression]) -> LinearExpression:
    if any(name in aliases for name, _ in expression.terms):
        return expression.substitute(aliases)
    return expression


def brute_force_max(psi: ScopedFunctionSet, base: dict[str, float] | None = None) -> float:
    """Oracle: enumerate every assignment over the declared variables and
    maximize the summed (evaluated) function values."""
    base = base or {}
    variables = sorted(psi.domains)
    best = None
    # product() over zero domains yields the single empty assignment
    for values in itertools.product(*(range(psi.domains[v]) for v in variables)):
        assignment = dict(zip(variables, values))
        total = 0.0
        for fn in psi.functions:
            total += evaluate(fn.value(assignment), base)
        if best is None or total > best:
            best = total
    return best
