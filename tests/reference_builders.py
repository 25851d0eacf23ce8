"""Row-by-row constructions of the projection, TCP, OCP and exhaustive LPs.

These build every row as a LinearExpression, one transition at a time, and
serve as the reference that the array-assembled builders in potplan must
reproduce exactly: same columns, same rows, same order.
"""

import itertools

from potplan.direct2d import (WEIGHT_LOWER, WEIGHT_UPPER, goal_row_expression,
                              weight_var_name)
from potplan.lp import LinearExpression, LpModel


def reference_projection(ts, pattern):
    """(pattern, domains, abstract states, abstract transitions, initial, goal)."""
    pattern = tuple(sorted(pattern))
    doms = tuple(ts.domain_sizes[v] for v in pattern)
    abstract_states = tuple(itertools.product(*(range(d) for d in doms)))

    def amap(state_index):
        state = ts.states[state_index]
        index = 0
        for var, dom in zip(pattern, doms):
            index = index * dom + state[var]
        return index

    transitions = [(amap(src), op, amap(dst)) for src, op, dst in ts.transitions]
    goals = {amap(g) for g in ts.goals}
    assert len(goals) == 1
    return pattern, doms, abstract_states, transitions, amap(ts.initial), goals.pop()


def _h(ai, si):
    return LinearExpression.term(f"h_a{ai}_s{si}")


def _start(ts, patterns, state):
    projections = [reference_projection(ts, p) for p in patterns]
    model = LpModel()
    for ai, proj in enumerate(projections):
        for si in range(len(proj[2])):
            model.add_unknown(f"h_a{ai}_s{si}")
    return projections, model


def _finish(model, projections, state):
    terms = {}
    for ai, (pattern, doms, _, _, _, _) in enumerate(projections):
        index = 0
        for var, dom in zip(pattern, doms):
            index = index * dom + state[var]
        name = f"h_a{ai}_s{index}"
        terms[name] = terms.get(name, 0.0) + 1.0
    model.set_objective("max", LinearExpression.build(0.0, terms))
    return model


def reference_tcp_model(ts, patterns, state):
    projections, model = _start(ts, patterns, state)
    for ai in range(len(projections)):
        for ti in range(len(ts.transitions)):
            model.add_unknown(f"c_a{ai}_t{ti}")
    for ai, proj in enumerate(projections):
        model.add_row(_h(ai, proj[5]), "=", 0.0, f"goal_a{ai}")
    for ai, proj in enumerate(projections):
        for ti, (asrc, _, adst) in enumerate(proj[3]):
            expr = _h(ai, asrc) - _h(ai, adst) - LinearExpression.term(f"c_a{ai}_t{ti}")
            model.add_row(expr, "<=", 0.0, f"cons_a{ai}_t{ti}")
    for ti, (_, op, _) in enumerate(ts.transitions):
        terms = {f"c_a{ai}_t{ti}": 1.0 for ai in range(len(projections))}
        model.add_row(LinearExpression.build(0.0, terms), "<=",
                      float(ts.operator_costs[op]), f"part_t{ti}")
    return _finish(model, projections, state)


def reference_ocp_model(ts, patterns, state):
    projections, model = _start(ts, patterns, state)
    n_ops = len(ts.operator_costs)
    for ai in range(len(projections)):
        for op in range(n_ops):
            model.add_unknown(f"c_a{ai}_o{op}")
    for ai, proj in enumerate(projections):
        model.add_row(_h(ai, proj[5]), "=", 0.0, f"goal_a{ai}")
    for ai, proj in enumerate(projections):
        seen = set()
        for asrc, op, adst in proj[3]:
            if (asrc, op, adst) in seen:
                continue
            seen.add((asrc, op, adst))
            expr = _h(ai, asrc) - _h(ai, adst) - LinearExpression.term(f"c_a{ai}_o{op}")
            model.add_row(expr, "<=", 0.0, f"cons_a{ai}_s{asrc}_o{op}_s{adst}")
    for op in range(n_ops):
        terms = {f"c_a{ai}_o{op}": 1.0 for ai in range(len(projections))}
        model.add_row(LinearExpression.build(0.0, terms), "<=",
                      float(ts.operator_costs[op]), f"part_o{op}")
    return _finish(model, projections, state)


def reference_exhaustive_model(task, fs, ts):
    model = LpModel()
    weight_vars = {}
    for i, f in enumerate(fs.features):
        weight_vars[i] = model.add_unknown(weight_var_name(f), WEIGHT_LOWER, WEIGHT_UPPER)
    model.add_row(goal_row_expression(task, fs, weight_vars), "<=", 0.0, "goal")
    for ti, (src, op_id, dst) in enumerate(ts.transitions):
        s, t = ts.states[src], ts.states[dst]
        terms = {}
        for i, f in enumerate(fs.features):
            change = int(f.true_in(s)) - int(f.true_in(t))
            if change:
                terms[weight_vars[i]] = terms.get(weight_vars[i], 0.0) + change
        model.add_row(LinearExpression.build(0.0, terms), "<=",
                      float(task.operators[op_id].cost), f"t{ti}")
    return model
