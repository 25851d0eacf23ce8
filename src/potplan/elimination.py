"""Bucket elimination that writes the potential LP's elimination unknowns
and rows, and the context-dependency graphs, min-fill orders and induced
widths it runs on.

An operator's change in potential sums one function per feature touching it,
over the feature's variables outside the operator; a context-independent
feature's function has the empty scope, a term of the final sum.  `classify`
finds, for all operators at once, every pair of an operator and a feature
touching it, with the feature's change inside the operator and its facts
outside; a feature's weight is the column numbered by the feature's index.
From these pairs come all context-dependency graphs as one array
(`adjacency`), and one elimination game over them gives min-fill orders and
induced widths.

Elimination condenses each bucket into fresh unknowns declared on the
model, one per assignment to the bucket's remaining scope, each bounded
below by one row `unknown - candidate >= 0` per value of the eliminated
variable.  These one-sided rows relax the max-equations of bucket
elimination without changing their projection onto the weights, provided no
such unknown enters the objective.  What elimination leaves is summed into
the terms of the operator's cost row.

Two array passes write these unknowns and rows for a run of operators at
once, in the order and with the names that the symbolic eliminator of the
test suite gives them one operator at a time
(`tests/reference_builders.reference_general_model`).  Where a
context-dependency graph has no edges (width 0: every feature has at most
one variable outside the operator, as at dimension at most 2), each bucket
holds one variable and its unknown has one row per value, a sum over the
pairs with that outside fact: `eliminate_width0` writes this compact binary
model.  `eliminate_buckets` takes every other operator (and any operator
given an order): it walks the operators' orders in lockstep, back to front,
and condenses the buckets of all operators at one position together.
`direct2d` assembles the potential LP from these pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .features import FeatureError, FeatureSet
from .lp import LpModel
from .task import Task


class OrderingError(ValueError):
    pass


@dataclass
class Classification:
    """Every pair of an operator and a feature sharing a variable with it,
    by operator, then feature (operator k's are `starts[k]:starts[k + 1]`):
    the change [inside <= pre] - [inside <= eff] of the feature's facts
    inside the operator, and which of its padded facts
    (`FeatureSet.fact_table`) lie outside it, each fact once."""

    starts: np.ndarray
    operator: np.ndarray
    feature: np.ndarray
    change: np.ndarray
    outside: np.ndarray  # (pair, dimension) booleans


def classify(task: Task, fs: FeatureSet) -> Classification:
    """The pairs of the task's operators and the features touching them,
    from one sparse product; memory grows with the number of pairs."""
    operators = task.operators
    for op in operators:
        if op.pre.keys() != op.eff.keys():
            raise FeatureError(f"operator {op.name} is not in transition normal form")
    # (operator, variable, pre, eff), sorted by operator, then variable
    op_of, var, pre, eff = np.array(
        [(k, v, op.pre[v], op.eff[v]) for k, op in enumerate(operators) for v in sorted(op.eff)],
        dtype=np.int64).reshape(-1, 4).T
    # the pairs: operator × variable times variable × feature incidence
    n_vars, variables = len(task.variables), fs.fact_table[:, :, 0]
    by_variable = csr_matrix((np.ones(variables.size), (variables.ravel(), np.repeat(
        np.arange(len(fs)), fs.dimension))), shape=(n_vars, len(fs)))
    pairs = csr_matrix((np.ones(len(var)), (op_of, var)),
                       shape=(len(operators), n_vars)) @ by_variable
    pairs.sort_indices()
    starts, feature = pairs.indptr.astype(np.int64), pairs.indices.astype(np.int64)
    operator = np.repeat(np.arange(len(operators)), np.diff(starts))
    # each fact of a pair, looked up among the operator's facts
    facts = fs.fact_table[feature]
    key, keys = operator[:, None] * n_vars + facts[:, :, 0], op_of * n_vars + var
    at = np.minimum(np.searchsorted(keys, key), max(len(keys) - 1, 0))
    inside = keys[at] == key
    in_pre = np.all(~inside | (pre[at] == facts[:, :, 1]), axis=1)
    in_eff = np.all(~inside | (eff[at] == facts[:, :, 1]), axis=1)
    return Classification(starts, operator, feature, in_pre.astype(np.int64) - in_eff,
                          ~inside & fs.distinct[feature])


def eliminate_width0(model: LpModel, task: Task, fs: FeatureSet, classes: Classification,
                     start: int, stop: int):
    """The rows, as `LpModel.add_rows` takes them, of the operators
    start..stop-1, whose context-dependency graphs have no edges, as
    elimination under min-fill writes them: per operator one unknown
    `z_o{k}_v{V}` per context variable V, in its cost row, with a row
    `z - sum of change * w over the features outside at V = x >= 0` per
    value x, kept also when all those changes are zero."""
    pairs = slice(classes.starts[start], classes.starts[stop])
    operator, feature = classes.operator[pairs] - start, classes.feature[pairs]
    change, outside = classes.change[pairs], classes.outside[pairs]
    context = outside.any(axis=1)
    fact = fs.fact_table[feature[context], np.nonzero(outside[context])[1]]
    n_vars, domains = len(task.variables), np.array(task.domain_sizes, dtype=np.int64)
    z_key, z_of = np.unique(operator[context] * n_vars + fact[:, 0], return_inverse=True)
    z_op, z_var = np.divmod(z_key, n_vars)
    ground, changed, first = ~context & (change != 0), change[context] != 0, len(model.names)
    result = [(operator[ground], feature[ground], change[ground].astype(float)),
              (z_op, first + np.arange(len(z_key)), np.ones(len(z_key)))]
    terms = [(z_of[changed], fact[changed, 1], feature[context][changed],
              -change[context][changed].astype(float))]
    names = [f"z_o{start + k}_v{v}" for k, v in zip(z_op.tolist(), z_var.tolist())]
    return _block(model, task, start, stop, first, result, terms, [(z_op, domains[z_var], names)])


def _strides(sizes: np.ndarray) -> np.ndarray:
    """Per row of sizes, the mixed-radix strides with the last place fastest."""
    strides = np.ones_like(sizes)
    strides[:, :-1] = np.cumprod(sizes[:, :0:-1], axis=1)[:, ::-1]
    return strides


def _pad(scopes: np.ndarray, width: int) -> np.ndarray:
    padded = np.full((len(scopes), width), -1, dtype=scopes.dtype)
    padded[:, :scopes.shape[1]] = scopes
    return padded


def eliminate_buckets(model: LpModel, task: Task, fs: FeatureSet, classes: Classification,
                      start: int, stop: int, orders):
    """The rows, as `LpModel.add_rows` takes them, of the operators
    start..stop-1 eliminated along `orders` (per operator, every variable
    once).  The operators advance in
    lockstep over the order positions, back to front, condensing the
    buckets at each position all at once.  A function is a table of columns
    (-1: absent) over the mixed-radix index of its sorted scope, last
    variable fastest: a feature's function has one entry, at a stored
    index, a generated one an entry per assignment.  Unknowns get
    provisional columns in creation order; `_block` renumbers them."""
    n_vars, domains = len(task.variables), np.array(task.domain_sizes, dtype=np.int64)
    count, first = stop - start, len(model.names)
    order = np.array(orders, dtype=np.int64).reshape(count, n_vars)
    position = np.empty_like(order)
    position[np.arange(count)[:, None], order] = np.arange(n_vars)
    pairs = slice(classes.starts[start], classes.starts[stop])
    op, feature = classes.operator[pairs] - start, classes.feature[pairs]
    change, outside = classes.change[pairs], classes.outside[pairs]
    facts, scoped = fs.fact_table[feature], outside.any(axis=1)
    ground = ~scoped & (change != 0)
    result = [(op[ground], feature[ground], change[ground].astype(float))]  # cost-row terms
    # the functions: operator, scope (padded with -1), table start, entry
    # index (-1 for a generated function) and coefficient
    f_op, f_scope = op[scoped], np.where(outside, facts[:, :, 0], -1)[scoped]
    f_base, f_coef = np.arange(len(f_op)), change[scoped].astype(float)
    f_entry = (np.where(outside, facts[:, :, 1], 0)[scoped]
               * _strides(np.where(f_scope >= 0, domains[f_scope], 1))).sum(axis=1)
    table = np.where(change[scoped] != 0, feature[scoped], -1)

    def bucket(f_op, scope):  # the latest position of a scope variable
        return np.where(scope >= 0, position[f_op[:, None], scope], -1).max(axis=1, initial=-1)

    f_bucket = bucket(f_op, f_scope)
    fact_names = [[f"v{u}.{x}" for x in range(size)] for u, size in enumerate(task.domain_sizes)]
    suffixes: dict[tuple, list[str]] = {}  # by scope, one per assignment
    terms, unknowns, n_unknowns = [], [], 0
    for p in range(n_vars - 1, -1, -1):
        if not (pick := np.flatnonzero(f_bucket == p)).size:
            continue
        # one bucket per operator; its remaining scope as the sorted keys
        # bucket * n_vars + variable
        b_op, f_b = np.unique(f_op[pick], return_inverse=True)
        b_var, scope = order[b_op, p], f_scope[pick]
        valid, is_var = scope >= 0, scope == b_var[f_b][:, None]
        key = np.unique((f_b[:, None] * n_vars + scope)[valid & ~is_var])
        s_b, s_var = np.divmod(key, n_vars)
        slot = np.arange(len(key)) - np.searchsorted(s_b, s_b)
        b_scope = np.full((len(b_op), slot.max(initial=-1) + 1), -1)
        b_scope[s_b, slot] = s_var
        b_sizes = np.where(b_scope >= 0, domains[b_scope], 1)
        b_strides, b_values = _strides(b_sizes), domains[b_var]
        b_empty = (b_scope[:, :1] < 0).all(axis=1)
        # the assignments a to each remaining scope, each with one candidate
        # row a * |x| + x (in its bucket) per value x of the variable
        a_start = np.concatenate(([0], np.cumsum(b_sizes.prod(axis=1))))
        a_b = np.repeat(np.arange(len(b_op)), np.diff(a_start))
        a_local, a_values = np.arange(len(a_b)) - a_start[a_b], b_values[a_b]
        r_start = np.concatenate(([0], np.cumsum(a_values)))
        row_a, b_rows = np.repeat(np.arange(len(a_b)), a_values), r_start[a_start]
        # each function's table index at each row of its bucket, from the
        # row's digits
        f_values = b_values[f_b][:, None]
        at = np.searchsorted(key, f_b[:, None] * n_vars + scope)
        divisor = np.where(valid & ~is_var, np.append(b_strides[s_b, slot], 1)[at] * f_values, 1)
        modulus = np.where(is_var, f_values, np.where(valid, domains[scope], 1))
        f_rows = np.diff(b_rows)[f_b]
        pf = np.repeat(np.arange(len(pick)), f_rows)
        local = np.arange(len(pf)) - np.repeat(np.cumsum(f_rows) - f_rows, f_rows)
        index = (local[:, None] // divisor[pf] % modulus[pf] * _strides(modulus)[pf]).sum(axis=1)
        entry = f_entry[pick][pf]
        at = f_base[pick][pf] + np.where(entry < 0, index, 0)
        hit = np.flatnonzero((table[at] >= 0) & ((entry < 0) | (index == entry)))
        # the candidates' terms by row, then column (no column repeats in a
        # candidate: the functions' entries are distinct columns, none zero)
        row, col = b_rows[f_b[pf[hit]]] + local[hit], table[at[hit]]
        by = np.argsort(row * (first + n_unknowns) + col)
        row, col, coef = row[by], col[by], f_coef[pick][pf[hit]][by]
        t_a = row_a[row]
        nonzero = np.bincount(t_a, minlength=len(a_b))
        # the alias rule (one value whose candidate is one term 1.0 on an
        # unknown), then the all-zero rule
        lone = np.searchsorted(t_a, np.arange(len(a_b)))
        alias = (a_values == 1) & (nonzero == 1)
        alias[alias] = (coef[lone[alias]] == 1.0) & (col[lone[alias]] >= first)
        kept = ~alias & ((nonzero > 0) | b_empty[a_b])
        ids = n_unknowns + np.cumsum(kept) - 1
        entries = np.where(kept, first + ids, -1)
        entries[alias] = col[lone[alias]]
        k_a = np.flatnonzero(kept)
        names, bounds = [], np.searchsorted(a_b[k_a], np.arange(len(b_op) + 1)).tolist()
        for k, var, vs, a, b in zip(b_op.tolist(), b_var.tolist(), b_scope.tolist(),
                                    bounds, bounds[1:]):
            if (vs := tuple(u for u in vs if u >= 0)) not in suffixes:
                suffixes[vs] = ["__" + "_".join(assignment) if vs else "" for assignment
                                in itertools.product(*(fact_names[u] for u in vs))]
            names += [f"z_o{start + k}_v{var}{suffixes[vs][j]}"
                      for j in a_local[k_a[a:b]].tolist()]
        unknowns.append((b_op[a_b[k_a]], a_values[k_a], names))
        n_unknowns += len(k_a)
        on = kept[t_a]  # rows `unknown - candidate >= 0`: (unknown, x, column, coefficient)
        terms.append((ids[t_a[on]], row[on] - r_start[t_a[on]], col[on], -coef[on]))
        # each bucket's function, if it has an entry; with the empty scope
        # it is a term of the cost row
        filled = np.bincount(a_b, entries >= 0, minlength=len(b_op)) > 0
        done, more = filled & b_empty, filled & ~b_empty
        result.append((b_op[done], entries[a_start[:-1][done]], np.ones(int(done.sum()))))
        width, new = max(f_scope.shape[1], b_scope.shape[1]), int(more.sum())
        f_op = np.append(f_op, b_op[more])
        f_base = np.append(f_base, a_start[:-1][more] + len(table))
        f_scope = np.concatenate((_pad(f_scope, width), _pad(b_scope[more], width)))
        f_entry, f_coef = np.append(f_entry, [-1] * new), np.append(f_coef, [1.0] * new)
        f_bucket = np.append(f_bucket, bucket(b_op[more], b_scope[more]))
        table = np.append(table, entries)
    return _block(model, task, start, stop, first, result, terms, unknowns)


def _block(model: LpModel, task: Task, start: int, stop: int, first: int,
           result: list, terms: list, unknowns: list):
    """Declare unknowns, given in creation order as parts (operator,
    values, names), on the model by operator, then by creation, and lay
    out the rows of the operators start..stop-1 as one canonical block:
    per operator k the cost row `op{k}`, the terms (k - start, column,
    coefficient) `<=` cost, then each unknown's rows `{unknown}.{x}`, the
    unknown plus the terms (unknown, x, column, coefficient) `>= 0`.
    Columns from `first` on are unknowns in creation order."""
    u_op, values = (np.concatenate([u[i] for u in unknowns] + [np.zeros(0, np.int64)])
                    for i in (0, 1))
    by_op = np.argsort(u_op, kind="stable")
    final = np.zeros(len(by_op) + 1, dtype=np.int64)  # provisional -> final, one spare
    final[by_op] = np.arange(len(by_op))
    names = [name for _, _, step in unknowns for name in step]
    names = [names[j] for j in by_op.tolist()]
    model.add_unknowns(names)
    u_op, values = u_op[by_op], values[by_op]
    before = np.concatenate(([0], np.cumsum(values)))
    count = stop - start
    u_row, k_first = before[:-1] + u_op + 1, np.searchsorted(u_op, np.arange(count + 1))
    cost_row = before[k_first[:-1]] + np.arange(count)
    own = np.repeat(np.arange(len(values)), values)
    row = np.concatenate([cost_row[k] for k, _, _ in result]
                         + [u_row[final[u]] + x for u, x, _, _ in terms]
                         + [u_row[own] + np.arange(len(own)) - before[own]])
    col = np.concatenate([c for _, c, _ in result] + [c for _, _, c, _ in terms])
    col = np.append(np.where(col >= first, first + final[np.maximum(col - first, 0)], col),
                    first + own)
    coef = np.concatenate([v for _, _, v in result] + [v for *_, v in terms] + [[1.0] * len(own)])
    by, n_rows = np.argsort(row * (first + len(values)) + col), count + len(own)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_rows))))
    dots = [[f".{x}" for x in range(size)] for size in range(max(task.domain_sizes) + 1)]
    row_names = []
    for k, a, b in zip(range(start, stop), k_first[:-1].tolist(), k_first[1:].tolist()):
        row_names += [f"op{k}"] + [name + dot for name, size in
                                   zip(names[a:b], values[a:b].tolist()) for dot in dots[size]]
    relations, rhs = np.full(n_rows, ">="), np.zeros(n_rows)
    relations[cost_row], rhs[cost_row] = "<=", [op.cost for op in task.operators[start:stop]]
    return indptr, col[by], coef[by], relations, rhs, row_names


def adjacency(task: Task, fs: FeatureSet, classes: Classification) -> np.ndarray:
    """Every operator's context-dependency graph as one symmetric boolean
    array, operators × variables × variables: an edge joins two variables
    outside the operator in one feature touching it."""
    n_vars = len(task.variables)
    graphs = np.zeros((len(classes.starts) - 1, n_vars, n_vars), dtype=bool)
    for i, j in itertools.combinations(range(classes.outside.shape[1]), 2):
        both = np.flatnonzero(classes.outside[:, i] & classes.outside[:, j])
        variables = fs.fact_table[classes.feature[both], :, 0]
        graphs[classes.operator[both], variables[:, i], variables[:, j]] = True
    return graphs | graphs.transpose(0, 2, 1)


def eliminate_graphs(adjacency: np.ndarray, given) -> tuple[np.ndarray, np.ndarray]:
    """The elimination game on every graph of `adjacency` (graphs × vertices
    × vertices, symmetric, no loops) at once, positions back to front: each
    graph eliminates the vertex its row of `given` names there or, for -1,
    the min-fill vertex (fewest pairs of its neighbours not yet joined, ties
    to the smallest index), then joins its neighbours.  Returns the orders
    and the induced widths (the most neighbours an eliminated vertex had)."""
    graphs = np.array(adjacency, dtype=bool)
    count, n = graphs.shape[:2]
    orders = np.array(given, dtype=np.int64).reshape(count, n)
    widths = np.zeros(count, dtype=np.int64)
    left = np.ones((count, n), dtype=bool)
    every, apart = np.arange(count), ~np.eye(n, dtype=bool)
    for p in range(n - 1, -1, -1):
        if (free := np.flatnonzero(orders[:, p] < 0)).size:
            # 2 * fill = degree * (degree - 1) - walks v-a-b-v; float32 is exact to 4096 vertices
            g = graphs[free].astype(np.float32)
            degree = g.sum(axis=2)
            fill = degree * (degree - 1) - (g @ g * g).sum(axis=2)
            orders[free, p] = np.where(left[free], fill, np.inf).argmin(axis=1)
        vertex = orders[:, p]
        neighbours = graphs[every, vertex]
        widths = np.maximum(widths, neighbours.sum(axis=1))
        left[every, vertex] = False
        graphs |= neighbours[:, :, None] & neighbours[:, None, :] & apart
        graphs &= left[:, :, None] & left[:, None, :]
    return orders, widths


def check_order(order, vertices) -> None:
    if set(order) != set(vertices) or len(order) != len(vertices):
        raise OrderingError("order must list every vertex exactly once")
