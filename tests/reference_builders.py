"""Row-by-row constructions of the projection, TCP (with and without its
cost unknowns), OCP, exhaustive and dimension-2 potential LPs, the
classified construction of the potential LP of any dimension over the
symbolic eliminator (tables of LinearExpressions, max-equations, then rows),
the repeated-addition sample objective, and the operator-scan transition
system and A*.

These build every row as a LinearExpression, one transition or operator at a
time, and serve as the reference that the builders in potplan must reproduce
exactly: same columns, same rows, same order.  The dimension-2 reference is
the binary model written out directly (goal row; per operator a cost row and
one bound unknown per context variable with a row per value), which the
bucket-elimination assembler has to match on edgeless context graphs; at
any dimension it has to match the construction that splits each
operator's features with `classify_features` and `delta_independent` and
eliminates each operator on its own, which the array passes of
`build_general_lp` reproduce.  The elimination game played one vertex at a
time over neighbour sets (`reference_min_fill_order`,
`reference_induced_width`) is the reference for the one over adjacency
arrays, `elimination.eliminate_graphs`, and enumerating every assignment
(`brute_force_max`) is the oracle of the symbolic eliminator.  The
search references test every operator in every state with `is_applicable`
and `successor`, and keep their open list in the order `reference_open_key`
gives; the indexed successor generator and A* have to reproduce them.
`reference_generate_features` and `reference_kept_features` generate and
pin features one `Feature` at a time, the references of the array passes
over the fact table in `potplan.features`.  `Feature`, one conjunction as
its facts sorted by variable, is the type these references are written
over; `features_of(fs)` lists a set's features as `Feature`s.
The TCP model with one cost unknown per (abstraction, transition) is no
builder's reference but the oracle of the eliminated one: same optimum, and
the solution lifted into it is feasible.  The potential references have a
weight unknown for every feature of the set they are given: over the kept
features (`kept_features`) they are the builders' references, and over the
whole set, pinned features included, the oracle of the builders: same
optimum.  The signed-cost Bellman-Ford
(`reference_goal_distances`) checks the goal distances of extracted cost
functions.  `parse_lp` reads back exactly the text `export_lp` writes, the
oracle of the export round trip.  The helpers that only tests call live
here too: `evaluate` (a LinearExpression's value under an assignment by
unknown name), `shift_weights_to_goal`, `abstract_transitions`,
`extract_cost_functions`, `validate_partition` and
`features_of_abstractions` over the cost-partitioning models,
`variables_of` (a feature's variables), `weight_var_name` and
`format_feature` (one feature's weight column name and printed key),
`solve_general_for_state` and `solve_exhaustive_for_state` (one state's
maximum potential over the compact and the exhaustive model), the seeded
`random_features`, and the graphs `complete_graph`, `cycle_graph` and
`empty_graph`.
"""

import heapq
import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from potplan.costpart import AbstractionError
from potplan.direct2d import (build_exhaustive_lp, build_general_lp, extract_result,
                              sample_states, state_objective)
from potplan.elimination import OrderingError, check_order
from potplan.features import FeatureError, FeatureSet
from potplan.lp import (FEASIBILITY_TOL, RELATIONS, LinearExpression, LpError, LpModel,
                        check_solution, solve)
from potplan.search import NoPlanError, SearchResult
from potplan.reduction import Graph
from potplan.task import is_applicable, state_index, successor

ZERO = LinearExpression()


def iter_states(domain_sizes: tuple[int, ...]):
    """All states in lexicographic order (variable 0 most significant)."""
    return itertools.product(*(range(dom) for dom in domain_sizes))


class MissingAssignmentError(LpError):
    pass


@dataclass(frozen=True, order=True)
class Feature:
    facts: tuple[tuple[int, int], ...]  # sorted by variable id, variables distinct

    def __post_init__(self):
        if not self.facts:
            raise FeatureError("empty feature")
        variables = [var for var, _ in self.facts]
        if sorted(variables) != variables or len(set(variables)) != len(variables):
            raise FeatureError(f"feature facts must be sorted over distinct variables: "
                               f"{self.facts}")

    @classmethod
    def of(cls, facts) -> "Feature":
        facts = tuple(sorted(facts))
        variables = [var for var, _ in facts]
        if len(set(variables)) != len(variables):
            raise FeatureError(f"conjunction mentions a variable twice: {facts}")
        return cls(facts)

    @property
    def size(self) -> int:
        return len(self.facts)


def features_of(fs):
    """The features of a set, in its order, one `Feature` per row of its
    fact table without the padding."""
    return tuple(Feature(tuple(map(tuple, row[:size]))) for row, size in
                 zip(fs.fact_table.tolist(), fs.distinct.sum(axis=1).tolist()))


def evaluate(expression: LinearExpression, assignment: dict[str, float]) -> float:
    """Value of the expression under a total assignment to its unknowns."""
    total = expression.constant
    for name, coef in expression.terms:
        if name not in assignment:
            raise MissingAssignmentError(f"no value for unknown '{name}'")
        total += coef * assignment[name]
    return total


# Minimum improvement for a Bellman-Ford relaxation; guards against declaring
# a negative cycle from float noise in LP-extracted cost functions.
RELAX_EPS = 1e-9


class Row(NamedTuple):
    """A model row by unknown names: `expression relation rhs`."""
    expression: LinearExpression
    relation: str
    rhs: float
    name: str


def add_unknown(model, name, lower=-math.inf, upper=math.inf):
    """Declare one free column through `add_unknowns`, then give it the
    bounds through `set_bounds` unless they are (-inf, inf); returns its
    name."""
    model.add_unknowns([name])
    if (lower, upper) != (-math.inf, math.inf):
        model.set_bounds([len(model.names) - 1], [lower], [upper])
    return name


def columns(model):
    """The model's columns as (name, lower, upper), in column order."""
    return list(zip(model.names, model.lower.tolist(), model.upper.tolist()))


def column_terms(model, expression):
    """The expression's terms as {column: coefficient}, in column order as
    `add_rows` takes a row; its constant is left out."""
    columns = {name: j for j, name in enumerate(model.names)}
    try:
        return dict(sorted((columns[name], coef) for name, coef in expression.terms))
    except KeyError as e:
        raise LpError(f"expression references undeclared unknown {e}") from None


def add_row(model, expression, relation, rhs, name=None):
    """Append one row through `add_rows`; the expression's constant is folded
    into the right-hand side, and row i is named c{i+1} unless `name` is
    given."""
    terms = column_terms(model, expression)
    model.add_rows([0, len(terms)], list(terms), list(terms.values()), relation,
                   float(rhs) - expression.constant,
                   [name or f"c{len(model.row_names) + 1}"])


def model_rows(model):
    """The model's rows by unknown names, read off `row_table()`, with their
    names."""
    names = model.names
    matrix, relations, rhs = model.row_table()
    return [Row(LinearExpression.build(0.0, {names[j]: c for j, c in zip(
                    matrix.indices[start:end].tolist(), matrix.data[start:end].tolist())}),
                RELATIONS[code], value, name)
            for start, end, code, value, name in zip(
                matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist(), relations.tolist(),
                rhs.tolist(), model.row_names)]


def solution_values(model, solution):
    """The solution's values by unknown name, or None if it has none."""
    if solution.x is None:
        return None
    return dict(zip(model.names, solution.x.tolist()))


def check_values(model, values):
    """`check_solution` for values by unknown name."""
    try:
        x = [values[name] for name in model.names]
    except KeyError as e:
        raise MissingAssignmentError(f"no value for unknown {e}") from None
    return check_solution(model, np.array(x, dtype=float))


_HEADERS = ("Maximize", "obj:.*", "Subject To", "Bounds", "End")
_BOUND_RE = re.compile(r"(?:(\S+) <= )?(\S+) (?:free|>= (\S+)|<= (\S+))")
_ROW_RE = re.compile(r"(\S+): ?(.*) (<=|=|>=) (\S+)")
_TERMS_RE = re.compile(r"(?:[+-] (?:\d\S* )?\S+(?: |$))*")
_TERM_RE = re.compile(r"([+-]) (?:(\d\S*) )?(\S+)")


def parse_lp(text):
    """Read back exactly what export_lp writes: `Maximize`, one
    ` obj: terms` line, `Subject To` with one ` name: terms relation rhs` line
    per row, `Bounds` with one line per unknown in column order, and `End`.
    Any other line raises an LpError that names it."""
    headers, blocks = [], [[]]  # the lines before the first header and after each
    for number, line in enumerate(text.splitlines(), 1):
        if len(headers) < len(_HEADERS) and re.fullmatch(_HEADERS[len(headers)], line.strip()):
            headers.append((number, line.strip()))
            blocks.append([])
        else:
            blocks[-1].append((number, line.strip()))
    if len(headers) < len(_HEADERS):
        raise LpError(f"no line matching '{_HEADERS[len(headers)]}'")
    _read(blocks[0] + blocks[1] + blocks[2] + blocks[5], None)
    model, declared = LpModel(), _read(blocks[4], _parse_bound)
    if declared:
        names, lower, upper = zip(*declared)
        model.add_unknowns(names)
        model.set_bounds(range(len(names)), lower, upper)
    columns = {name: j for j, name in enumerate(model.names)}
    parsed = _read(blocks[3], _parse_row, columns)
    if parsed:
        names, terms, relations, rhs = zip(*parsed)
        model.add_rows(np.cumsum([0] + [len(row) for row in terms]), [j for row in terms for j in row],
                       [c for row in terms for c in row.values()], relations, rhs, names)
    (objective,) = _read(headers[1:2], lambda line: _parse_terms(
        line[4:].strip(), columns, "the objective"))
    model.set_objective(objective)
    return model


def _read(lines: list[tuple[int, str]], parse, *args) -> list:
    """`parse(line, *args)` per (number, line); a line that fails, or any
    line if parse is None, raises an LpError that names it."""
    parsed = []
    for number, line in lines:
        try:
            if parse is None:
                raise LpError("not a line export_lp writes here")
            parsed.append(parse(line, *args))
        except ValueError as e:  # LpError included
            raise LpError(f"line {number} '{line}': {e}") from None
    return parsed


def _parse_bound(line: str) -> tuple[str, float, float]:
    """`x free`, `x >= lo`, `x <= hi` or `lo <= x <= hi`."""
    match = _BOUND_RE.fullmatch(line)
    if match is None or match[1] and not match[4]:
        raise LpError("not a bound `x free`, `x >= lo`, `x <= hi` or `lo <= x <= hi`")
    lower, name, at_least, upper = match.groups()
    return name, float(lower or at_least or "-inf"), float(upper or "inf")


def _parse_row(line: str, columns: dict[str, int]) -> tuple[str, dict[int, float], str, float]:
    match = _ROW_RE.fullmatch(line)
    if match is None:
        raise LpError("not a row `name: terms relation rhs`")
    name, terms, relation, rhs = match.groups()
    return name, _parse_terms(terms, columns, "a row's left-hand side"), relation, float(rhs)


def _parse_terms(text: str, columns: dict[str, int], where: str) -> dict[int, float]:
    """{column: coefficient} of terms as `_format_terms` writes them: a sign
    (left out before a first positive term), a coefficient unless it is 1,
    and the name of an unknown declared in Bounds."""
    text = "+ " + text if text and not text.startswith("- ") else text
    if not _TERMS_RE.fullmatch(text):
        raise LpError(f"'{text}' is not a sum of terms `+|- [coefficient] name`")
    parsed = {}
    for sign, coefficient, name in _TERM_RE.findall(text):
        if name not in columns or columns[name] in parsed:
            raise LpError(f"constants in {where} are not supported" if name[0].isdigit()
                          else f"unknown '{name}' is missing from Bounds or repeated")
        parsed[columns[name]] = float(sign + (coefficient or "1"))
    return parsed


class ScopedFunction(NamedTuple):
    scope: tuple  # sorted variable ids
    table: dict  # assignment to the scope -> LinearExpression; absent means zero


class DependencyGraph(NamedTuple):
    vertices: tuple
    edges: frozenset  # pairs (u, v) with u < v


def dependency_graph(functions, vertices):
    """Graph over the vertices joining any two variables sharing a scope."""
    return DependencyGraph(tuple(vertices), frozenset(
        pair for fn in functions for pair in itertools.combinations(fn.scope, 2)))


@dataclass
class OperatorPartition:
    """An operator's features, by index: irrelevant (no variable in common
    with the operator), context-independent (all variables touched by the
    operator) and context-dependent (some in, some out)."""
    irrelevant: tuple[int, ...]
    context_independent: tuple[int, ...]
    context_dependent: tuple[int, ...]


def _require_tnf_operator(op):
    if op.pre.keys() != op.eff.keys():
        raise FeatureError(f"operator {op.name} is not in transition normal form")
    return frozenset(op.eff)


def classify_features(fs, op):
    op_vars = _require_tnf_operator(op)
    irrelevant, independent, dependent = [], [], []
    for i, f in enumerate(features_of(fs)):
        f_vars = set(variables_of(f))
        if not f_vars & op_vars:
            irrelevant.append(i)
        elif f_vars <= op_vars:
            independent.append(i)
        else:
            dependent.append(i)
    return OperatorPartition(tuple(irrelevant), tuple(independent), tuple(dependent))


def variables_of(feature):
    return tuple(var for var, _ in feature.facts)


def weight_var_name(feature):
    """The name of a feature's weight column in the potential models."""
    return "w_" + "__".join(f"v{var}.{val}" for var, val in feature.facts)


def format_feature(task, feature):
    """A feature as `solve` prints it and feature files list it."""
    return " & ".join(
        f"{task.variables[var].name}={task.variables[var].value_names[val]}"
        for var, val in feature.facts)


def reference_generate_features(task, dimension):
    """`generate_features` one `Feature` at a time: all atoms, then at
    dimension 2 every pair of facts over two variables."""
    atoms = [Feature(((var.id, val),))
             for var in task.variables for val in range(var.domain_size)]
    if dimension == 1:
        return FeatureSet.of(f.facts for f in atoms)
    pairs = []
    for a, b in itertools.combinations(task.variables, 2):
        for va in range(a.domain_size):
            for vb in range(b.domain_size):
                pairs.append(Feature(((a.id, va), (b.id, vb))))
    return FeatureSet.of(f.facts for f in atoms + pairs)


def reference_kept_features(fs, domain_sizes):
    """`kept_features` by its rule, one feature and one value-0 fact at a
    time over the set's fact tuples."""
    features = features_of(fs)
    present = {f.facts for f in features}
    anchor = next((v for v, size in enumerate(domain_sizes)
                   if all(((v, x),) in present for x in range(size))), None)
    index = []
    for i, f in enumerate(features):
        for k, (var, val) in enumerate(f.facts):
            if val != 0:
                continue
            # g = before + after, and g + (V, u) is f with u for 0
            before, after = f.facts[:k], f.facts[k + 1:]
            if ((before + after in present) if f.size > 1 else anchor not in (None, var)) \
                    and all(before + ((var, u),) + after in present
                            for u in range(1, domain_sizes[var])):
                break  # pinned
        else:
            index.append(i)
    return FeatureSet.of(features[i].facts for i in index), np.array(index, dtype=np.int64)


def true_in(feature, state):
    return all(state[var] == val for var, val in feature.facts)


def entailed_by(feature, assignment):
    return all(assignment.get(var) == val for var, val in feature.facts)


def delta(op, feature, state):
    """Change of the feature's truth value when applying op in state."""
    after = successor(state, op)  # raises NotApplicableError
    return int(true_in(feature, state)) - int(true_in(feature, after))


def delta_independent(op, feature):
    """State-independent delta of a context-independent feature."""
    op_vars = _require_tnf_operator(op)
    if not set(variables_of(feature)) <= op_vars:
        raise FeatureError(f"feature {feature.facts} is not context-independent "
                           f"for operator {op.name}")
    return int(entailed_by(feature, op.pre)) - int(entailed_by(feature, op.eff))


def _reference_state_objective(fs, weight_vars, state):
    terms = {}
    for i, f in enumerate(features_of(fs)):
        if true_in(f, state):
            terms[weight_vars[i]] = terms.get(weight_vars[i], 0.0) + 1.0
    return LinearExpression.build(0.0, terms)


def reference_samples_objective(task, fs, count, seed):
    """Mean potential over sampled states: the states' indicator expressions
    added up one by one, then scaled by 1/count."""
    weight_vars = {i: weight_var_name(f) for i, f in enumerate(features_of(fs))}
    expr = LinearExpression()
    for state in sample_states(task, count, seed):
        expr = expr + _reference_state_objective(fs, weight_vars, state)
    return expr * (1.0 / count)


def reference_projection(ts, pattern):
    """(pattern, domains, abstract states, abstract transitions, initial, goal)."""
    pattern = tuple(sorted(pattern))
    doms = tuple(ts.domain_sizes[v] for v in pattern)
    abstract_states = tuple(itertools.product(*(range(d) for d in doms)))
    states = ts.states.tolist()

    def amap(state_index):
        state = states[state_index]
        index = 0
        for var, dom in zip(pattern, doms):
            index = index * dom + state[var]
        return index

    transitions = [(amap(src), op, amap(dst)) for src, op, dst in ts.transitions.tolist()]
    goals = {amap(g) for g in ts.goals.tolist()}
    assert len(goals) == 1
    return pattern, doms, abstract_states, transitions, amap(ts.initial), goals.pop()


def _h(ai, si):
    return LinearExpression.term(f"h_a{ai}_s{si}")


def _start(ts, patterns, state):
    projections = [reference_projection(ts, p) for p in patterns]
    model = LpModel()
    for ai, proj in enumerate(projections):
        for si in range(len(proj[2])):
            add_unknown(model, f"h_a{ai}_s{si}")
    return projections, model


def _finish(model, projections, state):
    terms = {}
    for ai, (pattern, doms, _, _, _, _) in enumerate(projections):
        index = 0
        for var, dom in zip(pattern, doms):
            index = index * dom + state[var]
        name = f"h_a{ai}_s{index}"
        terms[name] = terms.get(name, 0.0) + 1.0
    model.set_objective(column_terms(model, LinearExpression.build(0.0, terms)))
    return model


def reference_tcp_model(ts, patterns, state):
    projections, model = _start(ts, patterns, state)
    for ai in range(len(projections)):
        for ti in range(len(ts.transitions)):
            add_unknown(model, f"c_a{ai}_t{ti}")
    for ai, proj in enumerate(projections):
        add_row(model, _h(ai, proj[5]), "=", 0.0, f"goal_a{ai}")
    for ai, proj in enumerate(projections):
        for ti, (asrc, _, adst) in enumerate(proj[3]):
            expr = _h(ai, asrc) - _h(ai, adst) - LinearExpression.term(f"c_a{ai}_t{ti}")
            add_row(model, expr, "<=", 0.0, f"cons_a{ai}_t{ti}")
    for ti, (_, op, _) in enumerate(ts.transitions):
        terms = {f"c_a{ai}_t{ti}": 1.0 for ai in range(len(projections))}
        add_row(model, LinearExpression.build(0.0, terms), "<=",
                float(ts.operator_costs[op]), f"part_t{ti}")
    return _finish(model, projections, state)


def reference_tcp_eliminated_model(ts, patterns, state):
    """reference_tcp_model with its cost unknowns eliminated: the same goal
    rows, then per transition the sum of its consistency rows and its
    partition row, named `part_t{ti}`."""
    projections, model = _start(ts, patterns, state)
    for ai, proj in enumerate(projections):
        add_row(model, _h(ai, proj[5]), "=", 0.0, f"goal_a{ai}")
    for ti, (_, op, _) in enumerate(ts.transitions):
        expr = LinearExpression()
        for ai, proj in enumerate(projections):
            asrc, _, adst = proj[3][ti]
            expr = expr + _h(ai, asrc) - _h(ai, adst)
        add_row(model, expr, "<=", float(ts.operator_costs[op]), f"part_t{ti}")
    return _finish(model, projections, state)


def reference_ocp_model(ts, patterns, state):
    projections, model = _start(ts, patterns, state)
    n_ops = len(ts.operator_costs)
    for ai in range(len(projections)):
        for op in range(n_ops):
            add_unknown(model, f"c_a{ai}_o{op}")
    for ai, proj in enumerate(projections):
        add_row(model, _h(ai, proj[5]), "=", 0.0, f"goal_a{ai}")
    for ai, proj in enumerate(projections):
        seen = set()
        for asrc, op, adst in proj[3]:
            if (asrc, op, adst) in seen:
                continue
            seen.add((asrc, op, adst))
            expr = _h(ai, asrc) - _h(ai, adst) - LinearExpression.term(f"c_a{ai}_o{op}")
            add_row(model, expr, "<=", 0.0, f"cons_a{ai}_s{asrc}_o{op}_s{adst}")
    for op in range(n_ops):
        terms = {f"c_a{ai}_o{op}": 1.0 for ai in range(len(projections))}
        add_row(model, LinearExpression.build(0.0, terms), "<=",
                float(ts.operator_costs[op]), f"part_o{op}")
    return _finish(model, projections, state)


def shift_weights_to_goal(ts, patterns, fs, w):
    """Subtract, from each feature's weight, the weight of its pattern's
    goal-state feature; the shifted potential dominates the original one and
    stays feasible."""
    goal_state = ts.states[ts.goals[0]].tolist()
    features = features_of(fs)
    goal_weight = {}
    for pattern in patterns:
        pattern = tuple(sorted(pattern))
        goal_feature = Feature(tuple((v, goal_state[v]) for v in pattern))
        goal_weight[pattern] = w[features.index(goal_feature)]
    return [w[i] - goal_weight[variables_of(f)] for i, f in enumerate(features)]


def abstract_transitions(proj, ts):
    """One (abstract source, operator, abstract target) row per concrete
    transition of `ts` under its `Projection` proj, aligned with
    `ts.transitions`."""
    table = ts.transitions.copy()
    table[:, ::2] = proj.state_map[table[:, ::2]]
    return table


def extract_cost_functions(built, ts, solution):
    """(abstraction, concrete transition) costs of a solved
    `CostPartitioningLp`: the value of the operator's cost unknown, or
    without cost unknowns the least feasible cost h(abstract source) -
    h(abstract target).  The OCP cost unknowns are found by their names
    `c_a{a}_o{o}`."""
    x = solution.x
    src, op, dst = ts.transitions.T
    column = {name: j for j, name in enumerate(built.model.names)}
    if "c_a0_o0" not in column:  # TCP, or nothing to partition
        return (x[built.state_columns[src]] - x[built.state_columns[dst]]).T
    n_abstractions = built.state_columns.shape[1]
    cost_columns = np.array([[column[f"c_a{ai}_o{o}"] for ai in range(n_abstractions)]
                             for o in range(len(ts.operator_costs))])
    return x[cost_columns[op]].T


def validate_partition(ts, cost_functions):
    """Check the partitioning inequality on every transition, given one cost
    per transition for each abstraction; returns the first violating
    transition index, if any."""
    total = np.zeros(len(ts.transitions))
    for fn in cost_functions:
        if len(fn) != len(ts.transitions):
            raise AbstractionError("cost function does not cover every transition")
        total += fn
    violations = np.flatnonzero(
        total > ts.operator_costs[ts.transitions[:, 1]] + FEASIBILITY_TOL)
    return (False, int(violations[0])) if len(violations) else (True, None)


def features_of_abstractions(ts, patterns):
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
    return FeatureSet.of(f.facts for f in features)


def _reference_weights(model, fs):
    """One free weight unknown per feature."""
    return {i: add_unknown(model, weight_var_name(f), -math.inf, math.inf)
            for i, f in enumerate(features_of(fs))}


def _reference_goal_row(model, task, fs, weight_vars):
    goal_state = tuple(task.goal[v] for v in range(len(task.variables)))
    add_row(model, _reference_state_objective(fs, weight_vars, goal_state), "<=", 0.0, "goal")


def reference_exhaustive_model(task, fs, ts):
    model = LpModel()
    weight_vars = _reference_weights(model, fs)
    _reference_goal_row(model, task, fs, weight_vars)
    features = features_of(fs)
    for ti, (src, op_id, dst) in enumerate(ts.transitions):
        s, t = ts.states[src], ts.states[dst]
        terms = {}
        for i, f in enumerate(features):
            change = int(true_in(f, s)) - int(true_in(f, t))
            if change:
                terms[weight_vars[i]] = terms.get(weight_vars[i], 0.0) + change
        add_row(model, LinearExpression.build(0.0, terms), "<=",
                float(task.operators[op_id].cost), f"t{ti}")
    return model


def _reference_operator_rows(task, fs, weight_vars, op_index):
    """Cost row, z unknowns and z-bound rows of one operator: a z unknown
    for every context variable paired with the operator by a
    context-dependent feature (even if no weight change reaches it), with one
    row per domain value."""
    op = task.operators[op_index]
    partition = classify_features(fs, op)
    op_vars = set(op.eff)
    features = features_of(fs)
    main = LinearExpression()
    for i in partition.context_independent:
        change = delta_independent(op, features[i])
        if change:
            main = main + LinearExpression.term(weight_vars[i], float(change))
    by_context_var = {}
    for i in partition.context_dependent:
        f = features[i]
        inside = [fact for fact in f.facts if fact[0] in op_vars]
        (var, val), = [fact for fact in f.facts if fact[0] not in op_vars]
        change = delta_independent(op, Feature(tuple(inside)))
        bucket = by_context_var.setdefault(var, {})
        if change:
            bucket[val] = bucket.get(val, LinearExpression()) + \
                LinearExpression.term(weight_vars[i], float(change))
    z_names, z_rows = [], []
    for var in sorted(by_context_var):
        name = f"z_o{op_index}_v{var}"
        z_names.append(name)
        main = main + LinearExpression.term(name)
        for val in range(task.variables[var].domain_size):
            rhs = by_context_var[var].get(val, LinearExpression())
            z_rows.append((LinearExpression.term(name) - rhs, ">=", 0.0,
                           f"{name}.{val}"))
    return (main, "<=", float(op.cost), f"op{op_index}"), z_names, z_rows


def reference_direct2d_model(task, fs):
    assert fs.dimension <= 2
    model = LpModel()
    weight_vars = _reference_weights(model, fs)
    _reference_goal_row(model, task, fs, weight_vars)
    for op_index in range(len(task.operators)):
        main, z_names, z_rows = _reference_operator_rows(task, fs, weight_vars, op_index)
        for name in z_names:
            add_unknown(model, name)
        for row in [main] + z_rows:
            add_row(model, *row)
    return model


def _value(fn, assignment):
    return fn.table.get(tuple(assignment[v] for v in fn.scope), ZERO)


def _assignment_key(scope, assignment):
    return "_".join(f"v{var}.{assignment[var]}" for var in scope)


def reference_bucket_eliminate(domains, functions, order, prefix="z"):
    """The symbolic eliminator: scoped functions whose entries are
    LinearExpressions become max-equations `(name, candidates)` over fresh
    auxiliary names.  The order is processed back to front; each variable's
    bucket holds every function whose scope has that variable as its
    latest, and is condensed into one equation `{prefix}_v{var}` (plus
    `__{assignment}` over a non-empty remaining scope) per assignment to
    the remaining scope, with one candidate per value of the variable.
    Over a non-empty remaining scope an assignment whose candidates are all
    zero gets no equation (a function left without entries is dropped);
    over an empty one it is kept.  Variables with empty buckets are
    skipped.  The last equation, `{prefix}_result`, has the sum of the
    scope-free functions as its one candidate.  `domains` maps every
    variable a scope may hold to its size."""
    scope_vars = set()
    for fn in functions:
        scope_vars.update(fn.scope)
    undeclared = scope_vars - set(domains)
    if undeclared:
        raise OrderingError(f"scope variables without domains: {sorted(undeclared)}")
    missing = scope_vars - set(order)
    if missing:
        raise OrderingError(f"ordering misses scope variables {sorted(missing)}")
    position = {v: i for i, v in enumerate(order)}

    buckets = {v: [] for v in order}
    ground = []  # empty-scope functions

    def place(fn):
        if not fn.scope:
            ground.append(fn)
        else:
            buckets[max(fn.scope, key=position.__getitem__)].append(fn)

    for fn in functions:
        place(fn)

    equations = []
    for var in reversed(order):
        bucket = buckets[var]
        if not bucket:
            continue
        new_scope = tuple(sorted(
            {u for fn in bucket for u in fn.scope} - {var}))
        table = {}
        scope_domains = [range(domains[u]) for u in new_scope]
        for values in itertools.product(*scope_domains):
            assignment = dict(zip(new_scope, values))
            candidates = []
            for x in range(domains[var]):
                assignment[var] = x
                candidates.append(_sum(_value(fn, assignment) for fn in bucket))
            del assignment[var]
            if new_scope and all(c.is_zero() for c in candidates):
                continue  # table entry stays absent (zero)
            suffix = _assignment_key(new_scope, assignment)
            name = f"{prefix}_v{var}" + (f"__{suffix}" if suffix else "")
            equations.append((name, candidates))
            table[tuple(values)] = LinearExpression.term(name)
        if table:
            place(ScopedFunction(new_scope, table))

    total = _sum(fn.table.get((), ZERO) for fn in ground)
    equations.append((f"{prefix}_result", [total]))
    return equations


def _sum(expressions):
    """Sum of linear expressions, built once."""
    constant = 0.0
    terms = {}
    for expression in expressions:
        constant += expression.constant
        for name, coef in expression.terms:
            terms[name] = terms.get(name, 0.0) + coef
    return LinearExpression.build(constant, terms)


def reference_lp_constraints(equations):
    """(unknowns, rows, result) of the max-equations: one fresh unknown per
    equation but the last, and one row `aux >= candidate` per candidate,
    named `{aux}.{j}` for candidate j.  An equation whose single candidate is
    a bare earlier aux unknown becomes an alias instead of an unknown and a
    row.  The last equation gets no unknown either: its single candidate,
    aliases substituted, is returned as `result`."""
    if not equations:
        return [], [], ZERO
    *eliminated, (final_name, final) = equations
    if len(final) != 1:
        raise ValueError(f"result equation '{final_name}' needs exactly one "
                         f"candidate, has {len(final)}")
    aliases = {}
    declared = set()
    unknowns = []
    rows = []
    for name, candidates in eliminated:
        candidates = [_inline(c, aliases) for c in candidates]
        if len(candidates) == 1:
            c = candidates[0]
            if c.constant == 0.0 and len(c.terms) == 1 and \
                    c.terms[0][1] == 1.0 and c.terms[0][0] in declared:
                aliases[name] = c
                continue
        declared.add(name)
        unknowns.append(name)
        for j, c in enumerate(candidates):
            terms = {n: -coef for n, coef in c.terms}
            terms[name] = terms.get(name, 0.0) + 1.0
            rows.append(Row(LinearExpression.build(0.0, terms), ">=", c.constant,
                            f"{name}.{j}"))
    return unknowns, rows, _inline(final[0], aliases)


def _inline(expression, aliases):
    """The expression with aliased unknowns replaced by what they stand for."""
    if not any(name in aliases for name, _ in expression.terms):
        return expression
    result = LinearExpression.const(expression.constant)
    for name, coef in expression.terms:
        result = result + coef * aliases.get(name, LinearExpression.term(name))
    return result


def _neighbours(graph):
    adj = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_min_fill_order(graph):
    """Greedy min-fill ordering, smallest-id tie-break, one vertex at a time:
    at each step the fill of every remaining vertex is counted over the
    pairs of its sorted neighbours.  Returned back to front, the first
    victim last, as `elimination.eliminate_graphs` returns orders."""
    adj = _neighbours(graph)
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


def reference_induced_width(graph, order):
    """Maximum parent count in the induced graph along the order: process
    vertices back to front, connecting the earlier-ordered neighbors of each."""
    check_order(order, graph.vertices)
    position = {v: i for i, v in enumerate(order)}
    adj = _neighbours(graph)
    width = 0
    for v in reversed(order):
        parents = sorted(u for u in adj[v] if position[u] < position[v])
        width = max(width, len(parents))
        for a, b in itertools.combinations(parents, 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def complete_graph(n):
    return Graph.of(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    return Graph.of(n, ((i, (i + 1) % n) for i in range(n)))


def empty_graph(n):
    return Graph.of(n, ())


def brute_force_max(functions, domains, values):
    """Oracle: enumerate every assignment to the variables of `domains` (a
    {variable: size} map) and maximize the summed function values, each
    unknown at its value in `values`."""
    variables = sorted(domains)
    best = None
    # product() over no variables yields the single empty assignment
    for assignment in itertools.product(*(range(domains[v]) for v in variables)):
        assignment = dict(zip(variables, assignment))
        total = sum(evaluate(_value(fn, assignment), values) for fn in functions)
        if best is None or total > best:
            best = total
    return best


def random_scoped_set(n_vars, max_dom, n_functions, seed, max_scope=3, value_range=10.0):
    """Domain sizes of variables 0..n_vars-1, as a {variable: size} map, and
    constant-valued scoped functions over random subsets of them, used to
    exercise the eliminator against the brute-force maximum.  Each constant
    is the coefficient of the unknown `one`, which the caller fixes at 1."""
    rng = random.Random(f"scoped:{seed}")
    domains = {v: rng.randint(2, max_dom) if max_dom > 2 else 2 for v in range(n_vars)}
    functions = []
    for _ in range(n_functions):
        scope = tuple(sorted(rng.sample(range(n_vars),
                                        rng.randint(1, min(n_vars, max_scope)))))
        table = {}
        for key in itertools.product(*(range(domains[v]) for v in scope)):
            if rng.random() < 0.8:  # leave some entries at (sparse) zero
                value = round(rng.uniform(-value_range, value_range), 3)
                if value:
                    table[key] = LinearExpression.term("one", value)
        functions.append(ScopedFunction(scope, table))
    return domains, functions


def random_features(task, count, max_size, seed):
    """Distinct random conjunctions of up to max_size facts, at least one of
    the maximal size."""
    rng = random.Random(f"features:{seed}")
    n_vars = len(task.variables)
    max_size = min(max_size, n_vars)
    features = []
    seen = set()
    sizes = [rng.randint(1, max_size) for _ in range(count)]
    if max_size not in sizes and sizes:
        sizes[0] = max_size
    for size in sizes:
        for _ in range(50):
            scope = sorted(rng.sample(range(n_vars), size))
            facts = tuple((v, rng.randrange(task.variables[v].domain_size))
                          for v in scope)
            if facts not in seen:
                seen.add(facts)
                features.append(facts)
                break
    return FeatureSet.of(features)


def reference_general_model(task, fs, orderings=None):
    """The compact model of any dimension as the classified construction
    writes it: per operator, the cost row holds the context-independent
    changes (`delta_independent`), and bucket elimination runs only over
    the scoped functions of the context-dependent features, its result
    merged into the cost row."""
    model = LpModel()
    weight_vars = _reference_weights(model, fs)
    _reference_goal_row(model, task, fs, weight_vars)
    features = features_of(fs)
    for op_index, op in enumerate(task.operators):
        partition = classify_features(fs, op)
        op_vars = set(op.eff)
        cost = {}
        for i in partition.context_independent:
            change = delta_independent(op, features[i])
            if change:
                cost[weight_vars[i]] = float(change)
        constant, rows = 0.0, []
        if partition.context_dependent:
            functions = []
            for i in partition.context_dependent:
                f = features[i]
                inside = tuple(fact for fact in f.facts if fact[0] in op_vars)
                outside = tuple(fact for fact in f.facts if fact[0] not in op_vars)
                scope = tuple(var for var, _ in outside)
                change = delta_independent(op, Feature(inside))
                table = {}
                if change:
                    table[tuple(val for _, val in outside)] = \
                        LinearExpression.term(weight_vars[i], float(change))
                functions.append(ScopedFunction(scope, table))
            domains = {v.id: v.domain_size for v in task.variables if v.id not in op_vars}
            order = orderings.get(op_index) if orderings else None
            if order is None:
                order = reference_min_fill_order(
                    dependency_graph(functions, (v.id for v in task.variables)))
            unknowns, rows, result = reference_lp_constraints(reference_bucket_eliminate(
                domains, functions, list(order), prefix=f"z_o{op_index}"))
            for name in unknowns:
                add_unknown(model, name)
            for name, coef in result.terms:
                cost[name] = cost.get(name, 0.0) + coef
            constant = result.constant
        add_row(model, LinearExpression.build(constant, cost), "<=", float(op.cost),
                f"op{op_index}")
        for row in rows:
            add_row(model, row.expression, row.relation, row.rhs, row.name)
    return model


def _maximize(task, fs, model, state):
    """Maximize the potential of one state over a model built over `fs`.
    Auxiliary unknowns never enter the objective (their one-sided slack
    would otherwise distort it)."""
    model.set_objective(state_objective(task, fs, state))
    return extract_result(fs, task, solve(model).require_optimal())


def solve_general_for_state(task, fs, state, orderings=None):
    """Maximize the potential of one state over the model of any dimension."""
    return _maximize(task, fs, build_general_lp(task, fs, orderings), state)


def solve_exhaustive_for_state(task, fs, state):
    """Maximize the potential of one state over the exhaustive model."""
    return _maximize(task, fs, build_exhaustive_lp(task, fs), state)


def reference_successors(task, state):
    """(operator id, successor, cost) of every applicable operator, in
    operator order."""
    return [(op_id, successor(state, op), op.cost)
            for op_id, op in enumerate(task.operators) if is_applicable(op, state)]


def reference_sample_states(task, count, seed):
    """`sample_states` over `reference_successors`: the same walks, each
    step drawn by `random.Random.choice` among the applicable operators in
    operator order."""
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        state = task.initial_state
        for _ in range(rng.randint(0, 4 * len(task.variables))):
            if not (options := reference_successors(task, state)):
                break
            state = rng.choice(options)[1]
        states.append(state)
    return states


def reference_goal_distances(n, transitions, goals, costs):
    """Bellman-Ford over (source, label, target) transitions, relaxing one
    transition at a time, then -inf for every state that reaches a
    transition still improving (a negative cycle that reaches a goal)."""
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
    tainted = {src for src, dst, c in edges
               if dist[dst] < math.inf and c + dist[dst] < dist[src] - RELAX_EPS}
    stack = list(tainted)
    while stack:
        u = stack.pop()
        for src, dst, _ in edges:
            if dst == u and src not in tainted:
                tainted.add(src)
                stack.append(src)
    return [-math.inf if u in tainted else d for u, d in enumerate(dist)]


def reference_transitions(task):
    """(source index, operator id, target index) for every state in
    lexicographic order, then every applicable operator in operator order."""
    doms = task.domain_sizes
    return [(si, op_id, state_index(t, doms))
            for si, s in enumerate(iter_states(doms))
            for op_id, t, _ in reference_successors(task, s)]


def reference_open_key(f, h, counter):
    """The reference's open-list order: lowest f, then lowest h, then first
    in first out (the push counter)."""
    return (f, h, counter)


def reference_astar(task, heuristic, reopened=None):
    """A* that scans every operator of the task at each expansion; the
    wall time of the result is 0.  If `reopened` is a list, every state whose
    g improves after it was first generated is appended to it."""
    counter = itertools.count()
    h_cache = {}

    def h(state):
        if state not in h_cache:
            h_cache[state] = heuristic(state)
        return h_cache[state]

    s0 = task.initial_state
    g_best = {s0: 0.0}
    open_list = []
    h0 = h(s0)
    heapq.heappush(open_list, (*reference_open_key(h0, h0, next(counter)), s0))
    parent = {}
    expansions = 0
    expansion_f = []
    while open_list:
        f, _, _, state = heapq.heappop(open_list)
        g = g_best[state]
        if f - h(state) > g + 1e-12:
            continue
        if task.is_goal_state(state):
            plan = []
            cursor = state
            while cursor in parent:
                cursor, op_id = parent[cursor]
                plan.append(op_id)
            plan.reverse()
            before_last = sum(1 for fv in expansion_f if fv < g - 1e-9)
            return SearchResult(plan, g, expansions, before_last, len(h_cache), 0.0)
        expansions += 1
        expansion_f.append(f)
        for op_id, op in enumerate(task.operators):
            if not is_applicable(op, state):
                continue
            succ = successor(state, op)
            g2 = g + op.cost
            if g2 < g_best.get(succ, math.inf) - 1e-12:
                if reopened is not None and succ in g_best:
                    reopened.append(succ)
                g_best[succ] = g2
                parent[succ] = (state, op_id)
                heapq.heappush(open_list,
                               (*reference_open_key(g2 + h(succ), h(succ), next(counter)),
                                succ))
    raise NoPlanError("goal is unreachable from the initial state")
