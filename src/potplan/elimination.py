"""Symbolic bucket elimination over linear expressions and the general LP for
potential heuristics of any dimension.

The eliminator turns a set of scoped functions (tables mapping partial
assignments to linear expressions) into a system of max-equations over fresh
auxiliary unknowns; relaxing each equation to one-sided `aux >= candidate`
rows yields linear constraints whose projection onto the base unknowns is
unchanged, provided no auxiliary unknown enters the objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .features import (Feature, FeatureSet, OperatorPartition, classify_features,
                       delta_independent)
from .lp import LinearExpression, LpModel, Row, evaluate, solve
from .direct2d import (PotentialSolveResult, WEIGHT_LOWER, WEIGHT_UPPER,
                       extract_result, state_objective, weight_var_name, _require_tnf)
from .task import State, Task


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
        return self.table.get(key, LinearExpression())


@dataclass
class ScopedFunctionSet:
    """Functions plus the domains of every variable they may range over."""

    domains: dict[int, int]  # variable id -> domain size
    functions: list[ScopedFunction] = field(default_factory=list)

    def scope_variables(self) -> set[int]:
        out: set[int] = set()
        for fn in self.functions:
            out.update(fn.scope)
        return out


@dataclass
class AuxEquation:
    name: str
    candidates: list[LinearExpression]


@dataclass
class EquationSystem:
    """aux_i = max over its candidates; candidates only reference base
    unknowns and earlier aux names.  The last equation defines the result."""

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


def scoped_functions_for_operator(task: Task, fs: FeatureSet, op_index: int,
                                  partition: OperatorPartition | None = None
                                  ) -> ScopedFunctionSet:
    """One function per context-dependent feature: its scope is the feature's
    variables outside the operator, and the single nonzero entry (if any) is
    the weight unknown scaled by the inside-fact delta.  `partition` is the
    operator's feature classification, computed here when not given."""
    _require_tnf(task)
    op = task.operators[op_index]
    if partition is None:
        partition = classify_features(fs, op)
    op_vars = set(op.eff)
    outside_vars = [v.id for v in task.variables if v.id not in op_vars]
    domains = {v: task.variables[v].domain_size for v in outside_vars}
    functions = []
    for i in partition.context_dependent:
        f = fs.features[i]
        inside = tuple(fact for fact in f.facts if fact[0] in op_vars)
        outside = tuple(fact for fact in f.facts if fact[0] not in op_vars)
        scope = tuple(var for var, _ in outside)
        change = delta_independent(op, Feature(inside))
        table = {}
        if change:
            key = tuple(val for _, val in outside)
            table[key] = LinearExpression.term(weight_var_name(f), float(change))
        functions.append(ScopedFunction(scope, table))
    return ScopedFunctionSet(domains, functions)


def context_dependency_graph(task: Task, fs: FeatureSet, op_index: int,
                             partition: OperatorPartition | None = None
                             ) -> DependencyGraph:
    """Vertices are all task variables; an edge joins two non-operator
    variables that co-occur outside the operator in some feature touching it.
    Only context-dependent features have variables both in and outside the
    operator, so only they are scanned; `partition` is the operator's
    feature classification, computed here when not given."""
    op = task.operators[op_index]
    if partition is None:
        partition = classify_features(fs, op)
    op_vars = set(op.eff)
    edges = set()
    for i in partition.context_dependent:
        outside = [var for var in fs.features[i].variables if var not in op_vars]
        edges.update(itertools.combinations(outside, 2))
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
                     prefix: str = "aux") -> EquationSystem:
    """Generate the max-equation system whose result equals the maximum, over
    all assignments, of the summed function values.

    Processes the order back to front.  Each processed variable's bucket
    holds every function whose scope has that variable as its latest; the
    bucket is condensed into one fresh aux unknown per assignment to the
    remaining scope (assignments where every candidate is identically zero
    are skipped, their value is the zero expression).  Variables with empty
    buckets are skipped entirely.  The final equation sums the scope-free
    functions; with no functions at all it degenerates to max{0}.
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
                total = LinearExpression()
                for fn in bucket:
                    total = total + fn.value(assignment)
                candidates.append(total)
            del assignment[var]
            if all(c.is_zero() for c in candidates):
                continue  # table entry stays absent (zero)
            suffix = _assignment_key(new_scope, assignment)
            name = f"{prefix}_x{var}" + (f"__{suffix}" if suffix else "")
            equations.append(AuxEquation(name, candidates))
            table[tuple(values)] = LinearExpression.term(name)
        if table:
            place(ScopedFunction(new_scope, table))

    total = LinearExpression()
    for fn in ground:
        total = total + fn.table.get((), LinearExpression())
    equations.append(AuxEquation(f"{prefix}_result", [total]))
    return EquationSystem(equations)


@dataclass
class LpPieces:
    aux_unknowns: list[str]
    rows: list[Row]
    result: LinearExpression  # what stands for the system's result in the LP


def to_lp_constraints(system: EquationSystem) -> LpPieces:
    """One fresh unknown per equation and one `aux >= candidate` row per
    candidate, except that an equation whose single candidate is a bare
    earlier aux unknown becomes an alias instead of an unknown and a row."""
    aliases: dict[str, LinearExpression] = {}
    declared: set[str] = set()
    unknowns: list[str] = []
    rows: list[Row] = []
    for eq in system.equations:
        candidates = [c.substitute(aliases) for c in eq.candidates]
        if len(candidates) == 1:
            c = candidates[0]
            if c.constant == 0.0 and len(c.terms) == 1 and \
                    c.terms[0][1] == 1.0 and c.terms[0][0] in declared:
                aliases[eq.name] = c
                continue
        declared.add(eq.name)
        unknowns.append(eq.name)
        for j, c in enumerate(candidates):
            lhs = LinearExpression.term(eq.name) - LinearExpression.build(
                0.0, dict(c.terms))
            rows.append(Row(lhs, ">=", c.constant, f"{eq.name}.ge{j}"))
    if not system.equations:
        return LpPieces([], [], LinearExpression())
    result_name = system.result_name
    result = aliases.get(result_name, LinearExpression.term(result_name))
    return LpPieces(unknowns, rows, result)


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


@dataclass
class OperatorPipeline:
    op_index: int
    graph: DependencyGraph
    order: list[int]
    width: int
    system: EquationSystem | None  # None when the operator has no context functions
    aux_unknowns: list[str]
    rows: int


@dataclass
class GeneralLp:
    model: LpModel
    weight_vars: dict[int, str]
    pipelines: list[OperatorPipeline]

    @property
    def max_width(self) -> int:
        return max((p.width for p in self.pipelines), default=0)


def build_general_lp(task: Task, fs: FeatureSet,
                     orderings: dict[int, list[int]] | None = None) -> GeneralLp:
    """Goal row, then per operator the cost row over the state-independent
    change plus the result of its context elimination, plus the elimination
    rows.  Orderings default to min-fill on each context-dependency graph."""
    _require_tnf(task)
    model = LpModel()
    weight_vars = {}
    for i, f in enumerate(fs.features):
        weight_vars[i] = model.add_unknown(weight_var_name(f), WEIGHT_LOWER, WEIGHT_UPPER)

    goal_terms: dict[str, float] = {}
    goal_state = tuple(task.goal[v] for v in range(len(task.variables)))
    for i, f in enumerate(fs.features):
        if f.true_in(goal_state):
            goal_terms[weight_vars[i]] = goal_terms.get(weight_vars[i], 0.0) + 1.0
    model.add_row(LinearExpression.build(0.0, goal_terms), "<=", 0.0, "goal")

    pipelines = []
    for op_index, op in enumerate(task.operators):
        partition = classify_features(fs, op)
        independent = LinearExpression()
        for i in partition.context_independent:
            change = delta_independent(op, fs.features[i])
            if change:
                independent = independent + LinearExpression.term(
                    weight_vars[i], float(change))

        graph = context_dependency_graph(task, fs, op_index, partition)
        if orderings and op_index in orderings:
            order = list(orderings[op_index])
        else:
            order = min_fill_order(graph)
        width = induced_width(graph, order)

        psi = scoped_functions_for_operator(task, fs, op_index, partition)
        if not psi.functions:
            model.add_row(independent, "<=", float(op.cost), f"op{op_index}")
            pipelines.append(OperatorPipeline(op_index, graph, order, width,
                                              None, [], 0))
            continue

        system = bucket_eliminate(psi, order, prefix=f"aux_o{op_index}")
        pieces = to_lp_constraints(system)
        for name in pieces.aux_unknowns:
            model.add_unknown(name)
        model.add_row(independent + pieces.result, "<=", float(op.cost),
                      f"op{op_index}")
        for row in pieces.rows:
            model.add_row(row.expression, row.relation, row.rhs, row.name)
        pipelines.append(OperatorPipeline(op_index, graph, order, width, system,
                                          pieces.aux_unknowns, len(pieces.rows)))
    return GeneralLp(model, weight_vars, pipelines)


def solve_general_for_state(task: Task, fs: FeatureSet, state: State,
                            orderings: dict[int, list[int]] | None = None
                            ) -> PotentialSolveResult:
    """Maximize the potential of one state over the general model.  Auxiliary
    unknowns never enter the objective (their one-sided slack would otherwise
    distort it)."""
    built = build_general_lp(task, fs, orderings)
    built.model.set_objective("max", state_objective(fs, built.weight_vars, state))
    solution = solve(built.model.freeze()).require_optimal()
    return extract_result(fs, built.weight_vars, task, solution)
