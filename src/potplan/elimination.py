"""Bucket elimination that writes the potential LP's elimination unknowns
and rows, and the scoped functions, context-dependency graphs, min-fill
orders and induced widths it runs on.

An operator's change in potential sums one function per feature touching it,
over the feature's variables outside the operator; a context-independent
feature's function has the empty scope, a term of the final sum.  A table
entry maps LP columns to coefficients; a feature's weight is the column
numbered by the feature's index.  `classify` finds, for all operators at
once, every pair of an operator and a feature touching it, with the
feature's change inside the operator and its facts outside.

The eliminator condenses each bucket into fresh unknowns declared on the
model, one per assignment to the bucket's remaining scope, each bounded
below by one row `unknown - candidate >= 0` per value of the eliminated
variable.  These one-sided rows relax the max-equations of bucket
elimination without changing their projection onto the weights, provided no
such unknown enters the objective.  What elimination leaves is summed into
the terms of the operator's cost row.

Where a context-dependency graph has no edges (width 0: every feature has
at most one variable outside the operator, as at dimension at most 2), each
bucket holds one variable and its unknown has one row per value, a sum over
the pairs with that outside fact.  `eliminate_width0` writes these rows, the
compact binary model, for a run of such operators in one numpy pass, in the
order and with the names `bucket_eliminate` would give them; every other
operator goes through `bucket_eliminate`.  `direct2d` assembles the
potential LP from these pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


@dataclass
class Classification:
    """Every pair of an operator and a feature sharing a variable with it,
    by operator, then feature (operator k's are `starts[k]:starts[k + 1]`):
    the change [inside <= pre] - [inside <= eff] of the feature's facts
    inside the operator, and which of its padded facts
    (`FeatureSet._padded_facts`) lie outside it, each fact once."""

    starts: np.ndarray
    operator: np.ndarray
    feature: np.ndarray
    change: np.ndarray
    outside: np.ndarray  # (pair, dimension) booleans

    def width0(self) -> list[bool]:
        """Per operator: no feature has two variables outside it, so its
        context-dependency graph has no edges."""
        wide = self.operator[self.outside.sum(axis=1) > 1]
        return (np.bincount(wide, minlength=len(self.starts) - 1) == 0).tolist()


def classify(task: Task, fs: FeatureSet, operators: list[Operator] | None = None
             ) -> Classification:
    """The pairs of the operators (default: the task's) and the features
    touching them; memory grows with the number of pairs."""
    operators = task.operators if operators is None else operators
    for op in operators:
        _require_tnf_operator(op)
    touching = [fs.touching(op.eff) for op in operators]
    sizes = [len(features) for features in touching]
    feature = np.fromiter(itertools.chain.from_iterable(touching), np.int64, sum(sizes))
    operator = np.repeat(np.arange(len(operators)), sizes)
    # each padded fact of a pair, looked up among the operator's facts
    # (operator, variable, pre, eff), sorted by operator, then variable
    op_of, var, pre, eff = np.array(
        [(k, v, op.pre[v], op.eff[v]) for k, op in enumerate(operators) for v in sorted(op.eff)],
        dtype=np.int64).reshape(-1, 4).T
    n_vars, facts = len(task.variables), fs._padded_facts[feature]
    key, keys = operator[:, None] * n_vars + facts[:, :, 0], op_of * n_vars + var
    at = np.minimum(np.searchsorted(keys, key), max(len(keys) - 1, 0))
    inside = keys[at] == key
    in_pre = np.all(~inside | (pre[at] == facts[:, :, 1]), axis=1)
    in_eff = np.all(~inside | (eff[at] == facts[:, :, 1]), axis=1)
    first = np.ones(facts.shape[:2], dtype=bool)  # padding repeats a feature's last fact
    first[:, 1:] = facts[:, 1:, 0] != facts[:, :-1, 0]
    return Classification(np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), operator,
                          feature, in_pre.astype(np.int64) - in_eff, ~inside & first)


def operator_functions(fs: FeatureSet, classes: Classification, start: int,
                       stop: int) -> list[list[ScopedFunction]]:
    """For each of the operators start..stop-1, one function per feature
    touching it: its scope is the feature's variables outside the operator
    (empty for a context-independent feature, a term of the final sum), and
    its single nonzero entry (if any) the feature's weight column scaled by
    the change of the facts inside the operator."""
    pairs = slice(classes.starts[start], classes.starts[stop])
    functions = []
    for i, facts, outside, change in zip(classes.feature[pairs].tolist(),
                                         fs._padded_facts[classes.feature[pairs]].tolist(),
                                         classes.outside[pairs].tolist(),
                                         classes.change[pairs].tolist()):
        facts = [fact for fact, out in zip(facts, outside) if out]
        scope, values = tuple(v for v, _ in facts), tuple(x for _, x in facts)
        functions.append(ScopedFunction(scope, {values: {i: float(change)}} if change else {}))
    bounds = (classes.starts[start:stop + 1] - classes.starts[start]).tolist()
    return [functions[a:b] for a, b in zip(bounds, bounds[1:])]


def scoped_functions_for_operator(task: Task, fs: FeatureSet,
                                  op_index: int) -> list[ScopedFunction]:
    """`operator_functions` of one operator of the task."""
    return operator_functions(fs, classify(task, fs, [task.operators[op_index]]), 0, 1)[0]


def eliminate_width0(model: LpModel, task: Task, fs: FeatureSet, classes: Classification,
                     start: int, stop: int):
    """The rows, as `LpModel.add_rows` takes them, of the operators
    start..stop-1, whose context-dependency graphs have no edges, in the
    order and with the names that `bucket_eliminate` gives them under
    min-fill: per operator the cost row `op{k}`, its context-independent
    changes plus one unknown `z_o{k}_v{V}` (declared on the model) per
    context variable V, `<= cost`; then per V and value x the row
    `z_o{k}_v{V}.{x}`, z - sum of change * w over the features outside at
    V = x >= 0, kept also when all those changes are zero."""
    pairs = slice(classes.starts[start], classes.starts[stop])
    operator, feature = classes.operator[pairs], classes.feature[pairs]
    change, outside = classes.change[pairs], classes.outside[pairs]
    context = outside.any(axis=1)
    fact = fs._padded_facts[feature[context], np.nonzero(outside[context])[1]]
    n_vars, domains = len(task.variables), np.array(task.domain_sizes, dtype=np.int64)
    z_key, z_of = np.unique(operator[context] * n_vars + fact[:, 0], return_inverse=True)
    z_op, z_var = np.divmod(z_key, n_vars)
    z_rows = domains[z_var]
    # per operator its cost row, then each unknown's rows
    z_start = np.searchsorted(z_op, np.arange(start, stop + 1))
    rows_before = np.concatenate(([0], np.cumsum(z_rows)))
    op_row = np.arange(stop - start) + rows_before[z_start[:-1]]
    z_row = z_op - start + 1 + rows_before[:-1]
    z_column = len(model.unknowns) + np.arange(len(z_key))
    ground = ~context & (change != 0)
    changed = change[context] != 0
    value_row = np.repeat(z_row, z_rows)
    value_row += np.arange(len(value_row)) - np.repeat(rows_before[:-1], z_rows)
    # the cost rows' entries before the unknowns' rows' entries, each part
    # by increasing column within a row, so a stable sort by row keeps them
    # in column order
    row = np.concatenate((op_row[operator[ground] - start], op_row[z_op - start],
                          z_row[z_of[changed]] + fact[changed, 1], value_row))
    order = np.argsort(row, kind="stable")
    columns = np.concatenate((feature[ground], z_column, feature[context][changed],
                              np.repeat(z_column, z_rows)))[order]
    coefficients = np.concatenate((change[ground], np.ones(len(z_key)),
                                   -change[context][changed], np.ones(len(value_row))))[order]
    n_rows = stop - start + int(rows_before[-1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_rows))))
    z_names = [f"z_o{k}_v{v}" for k, v in zip(z_op.tolist(), z_var.tolist())]
    model.add_unknowns(z_names, [-math.inf] * len(z_names), [math.inf] * len(z_names))
    z_rows, bounds, names = z_rows.tolist(), z_start.tolist(), []
    for k, a, b in zip(range(start, stop), bounds, bounds[1:]):
        names += [f"op{k}"] + [f"{z_names[z]}.{x}" for z in range(a, b) for x in range(z_rows[z])]
    relations, rhs = np.full(n_rows, ">="), np.zeros(n_rows)
    relations[op_row], rhs[op_row] = "<=", [op.cost for op in task.operators[start:stop]]
    return indptr, columns, coefficients, relations, rhs, names


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


def check_order(order, vertices) -> None:
    if set(order) != set(vertices) or len(order) != len(vertices):
        raise OrderingError("order must list every vertex exactly once")


def induced_width(graph: DependencyGraph, order: list[int]) -> int:
    """Maximum parent count in the induced graph along the order: process
    vertices back to front, connecting the earlier-ordered neighbors of each."""
    check_order(order, graph.vertices)
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
    result: dict[int, float] = {}  # the sum of the functions with the empty scope

    def place(fn: ScopedFunction) -> None:
        if fn.scope:
            buckets[max(fn.scope, key=position.__getitem__)].append(fn)
        else:
            for column, coefficient in fn.table.get((), NO_TERMS).items():
                result[column] = result.get(column, 0.0) + coefficient

    for fn in functions:
        place(fn)
    first = len(model.unknowns)  # the unknowns of this call are the columns from here
    declared, rows = [], []
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
            column = first + len(declared)
            declared.append(name)
            rows.extend((f"{name}.{j}", {column: 1.0, **{c: -v for c, v in candidate.items()}})
                        for j, candidate in enumerate(candidates))
            table[values] = {column: 1.0}
        if table:
            place(ScopedFunction(scope, table))
    model.add_unknowns(declared, [-math.inf] * len(declared), [math.inf] * len(declared))
    return result, rows


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
