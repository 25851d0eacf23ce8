"""Bucket elimination that writes the potential LP's elimination unknowns
and rows, and the scoped functions, context-dependency graphs, min-fill
orders and induced widths it runs on.

An operator's change in potential sums one function per feature touching it,
over the feature's variables outside the operator; a context-independent
feature's function has the empty scope, a term of the final sum.  A table
entry maps LP columns to coefficients; a feature's weight is the column
numbered by the feature's index.

The eliminator condenses each bucket into fresh unknowns declared on the
model, one per assignment to the bucket's remaining scope, each bounded
below by one row `unknown - candidate >= 0` per value of the eliminated
variable.  These one-sided rows relax the max-equations of bucket
elimination without changing their projection onto the weights, provided no
such unknown enters the objective.  What elimination leaves is summed into
the terms of the operator's cost row.  `direct2d` assembles the potential LP
from these pieces; for features of dimension at most 2 every
context-dependency graph has no edges and elimination yields the compact
binary model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .features import FeatureError, FeatureSet
from .lp import LpModel
from .task import Operator, Task

NO_TERMS: dict[int, float] = {}


class OrderingError(ValueError):
    pass


@dataclass
class ScopedFunction:
    """Table over assignments to the scope, each entry a {column:
    coefficient} map; absent entries mean zero."""

    scope: tuple[int, ...]  # sorted variable ids
    table: dict[tuple[int, ...], dict[int, float]]

    def __post_init__(self):
        if tuple(sorted(self.scope)) != self.scope:
            raise OrderingError(f"scope must be sorted, got {self.scope}")


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


def scoped_functions_for_operator(task: Task, fs: FeatureSet,
                                  op_index: int) -> list[ScopedFunction]:
    """One function per feature sharing a variable with the operator: its
    scope is the feature's variables outside the operator (empty for a
    context-independent feature, so elimination adds it to the final sum),
    and the single nonzero entry (if any) is the feature's weight column
    scaled by the change of the facts inside the operator."""
    return [ScopedFunction(scope, {values: {i: float(change)}} if change else {})
            for i, scope, values, change in _split(task, fs, op_index)]


def dependency_graph(functions: list[ScopedFunction], vertices) -> DependencyGraph:
    """Graph over the vertices joining any two variables sharing a scope."""
    edges = set()
    for fn in functions:
        edges.update(itertools.combinations(fn.scope, 2))
    return DependencyGraph(tuple(vertices), frozenset(edges))


def context_dependency_graph(task: Task, fs: FeatureSet, op_index: int) -> DependencyGraph:
    """Vertices are all task variables; an edge joins two non-operator
    variables that co-occur outside the operator in some feature touching it."""
    return dependency_graph(scoped_functions_for_operator(task, fs, op_index),
                            (v.id for v in task.variables))


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


def bucket_eliminate(model: LpModel, functions: list[ScopedFunction], domains,
                     order: list[int], prefix: str = "z"
                     ) -> tuple[dict[int, float], list[tuple[str, dict[int, float]]]]:
    """Eliminate the order's variables from the summed functions, whose
    entries refer to columns of `model`, and return the terms that stand for
    the maximum of that sum over all assignments, with the rows that bound
    the unknowns this adds: `(name, terms)` for the row `terms >= 0`.
    Variable v ranges over `range(domains[v])`.

    Processes the order back to front.  Each processed variable's bucket
    holds every function whose scope has that variable as its latest; the
    bucket is condensed into one unknown per assignment to the remaining
    scope, declared on `model` as `{prefix}_v{var}` plus `__{assignment}`
    when that scope is not empty, with the row `{unknown}.{j}`, unknown -
    candidate >= 0, for each value j of the variable.  Over a non-empty
    remaining scope, assignments whose candidates are all zero get no
    unknown (a function left without entries is dropped); over an empty one
    the unknown is kept even then, so at width 0 every variable paired with
    the operator has its `unknown >= 0` rows, as in the binary model.  A
    single candidate that is one earlier unknown of this call (the variable
    has one value) becomes that unknown, with no new column or row.
    Variables with empty buckets are skipped.  The result sums the functions
    left with the empty scope.
    """
    scope_vars = {v for fn in functions for v in fn.scope}
    undeclared = {v for v in scope_vars if not 0 <= v < len(domains)}
    if undeclared:
        raise OrderingError(f"scope variables without domains: {sorted(undeclared)}")
    missing = scope_vars - set(order)
    if missing:
        raise OrderingError(f"ordering misses scope variables {sorted(missing)}")
    position = {v: i for i, v in enumerate(order)}
    buckets: dict[int, list[ScopedFunction]] = {v: [] for v in order}
    ground: list[ScopedFunction] = []  # empty-scope functions

    def place(fn: ScopedFunction) -> None:
        if fn.scope:
            buckets[max(fn.scope, key=position.__getitem__)].append(fn)
        else:
            ground.append(fn)

    for fn in functions:
        place(fn)
    first = len(model.unknowns)  # the unknowns of this call are the columns from here
    rows = []
    for var in reversed(order):
        bucket = buckets[var]
        if not bucket:
            continue
        scope = tuple(sorted({u for fn in bucket for u in fn.scope} - {var}))
        # a function's key is the whole assignment to the sorted scope and
        # var if its scope is all of them, else picked out of it
        at = {u: i for i, u in enumerate(sorted(scope + (var,)))}
        k = at[var]
        keyed = [(fn.table, None if len(fn.scope) == len(at) else [at[u] for u in fn.scope])
                 for fn in bucket]
        table = {}
        for values in itertools.product(*(range(domains[u]) for u in scope)):
            candidates = []
            for x in range(domains[var]):
                full = values[:k] + (x,) + values[k:]
                total: dict[int, float] = {}
                for entries, picks in keyed:
                    key = full if picks is None else tuple([full[i] for i in picks])
                    for column, coefficient in entries.get(key, NO_TERMS).items():
                        total[column] = total.get(column, 0.0) + coefficient
                candidates.append(total)
            if scope and not any(any(c.values()) for c in candidates):
                continue  # table entry stays absent (zero)
            if len(candidates) == 1:
                terms = [(c, v) for c, v in candidates[0].items() if v]
                if len(terms) == 1 and terms[0][1] == 1.0 and terms[0][0] >= first:
                    table[values] = {terms[0][0]: 1.0}  # an alias of that unknown
                    continue
            name = f"{prefix}_v{var}"
            if scope:
                name += "__" + "_".join(f"v{u}.{val}" for u, val in zip(scope, values))
            column = len(model.unknowns)
            model.add_unknown(name)
            rows.extend((f"{name}.{j}", {column: 1.0, **{c: -v for c, v in candidate.items()}})
                        for j, candidate in enumerate(candidates))
            table[values] = {column: 1.0}
        if table:
            place(ScopedFunction(scope, table))
    return sum_empty_scope(ground), rows


def sum_empty_scope(functions: list[ScopedFunction]) -> dict[int, float]:
    """The entries of functions with the empty scope, summed in order."""
    result: dict[int, float] = {}
    for fn in functions:
        for column, coefficient in fn.table.get((), NO_TERMS).items():
            result[column] = result.get(column, 0.0) + coefficient
    return result


def brute_force_max(functions: list[ScopedFunction], domains, values) -> float:
    """Oracle: enumerate every assignment to the variables 0..len(domains)-1
    and maximize the summed function values, with column j at `values[j]`."""
    best = None
    # product() over zero domains yields the single empty assignment
    for assignment in itertools.product(*(range(d) for d in domains)):
        total = 0.0
        for fn in functions:
            entry = fn.table.get(tuple(assignment[v] for v in fn.scope), NO_TERMS)
            total += sum(coefficient * values[column] for column, coefficient in entry.items())
        if best is None or total > best:
            best = total
    return best
