import itertools
import sys

import pytest

from potplan.direct2d import (build_general_lp, solve_exhaustive_for_state,
                              solve_for_state, solve_general_for_state,
                              weight_var_name)
from potplan.elimination import (AuxEquation, DependencyGraph, EquationSystem,
                                 OrderingError, ScopedFunction, ScopedFunctionSet,
                                 brute_force_max, bucket_eliminate,
                                 context_dependency_graph, dependency_graph,
                                 induced_width, min_fill_order,
                                 scoped_functions_for_operator, to_lp_constraints)
from potplan.features import Feature, FeatureSet, generate_features
from potplan.generator import random_features, random_scoped_set, random_task
from potplan.lp import LinearExpression, LpModel, evaluate, solve
from potplan.reduction import complete_graph, reduce_3col
from potplan.task import Operator, Task, Variable

from reference_builders import delta_independent


def candidate_shape(expression):
    return (expression.constant, dict(expression.terms))


def weight_names(fs):
    return {i: weight_var_name(f) for i, f in enumerate(fs.features)}


def test_scoped_functions_toy1(toy1):
    fs = generate_features(toy1, 2)
    psi = scoped_functions_for_operator(toy1, fs, 0, weight_names(fs))
    assert psi.domains == {1: 2}
    dependent = [fn for fn in psi.functions if fn.scope]
    by_key = {}
    for fn in dependent:
        assert fn.scope == (1,)
        for key, expr in fn.table.items():
            by_key[(key, tuple(expr.terms))] = expr
    # X=0&Y=0 contributes +w at Y=0; X=1&Y=1 contributes -w at Y=1
    plus = LinearExpression.term("w_v0.0__v1.0")
    minus = -1 * LinearExpression.term("w_v0.1__v1.1")
    assert ((0,), tuple(plus.terms)) in by_key
    assert ((1,), tuple(minus.terms)) in by_key
    assert by_key[((1,), tuple(minus.terms))] == minus
    assert len(dependent) == 4  # one per context feature
    # X=0 and X=1 change by a constant: functions of the empty scope
    independent = [fn.table for fn in psi.functions if not fn.scope]
    assert independent == [{(): LinearExpression.term("w_v0.0")},
                           {(): -1 * LinearExpression.term("w_v0.1")}]


def test_scoped_functions_independent_have_empty_scope(toy1):
    fs = generate_features(toy1, 1)
    op = toy1.operators[0]
    psi = scoped_functions_for_operator(toy1, fs, 0, weight_names(fs))
    expected = [i for i, f in enumerate(fs.features) if set(f.variables) <= set(op.eff)]
    assert len(psi.functions) == len(expected) == 2
    for i, fn in zip(expected, psi.functions):
        assert fn.scope == ()
        change = delta_independent(op, fs.features[i])
        assert fn.value({}) == LinearExpression.term(weight_var_name(fs.features[i]),
                                                     change)


def test_context_graph_dim2_is_edge_free(toy1):
    fs = generate_features(toy1, 2)
    for op_index in range(len(toy1.operators)):
        graph = context_dependency_graph(toy1, fs, op_index)
        assert graph.edges == frozenset()
        assert induced_width(graph, min_fill_order(graph)) == 0


def three_var_task():
    variables = [Variable(i, f"v{i}", 2, ("0", "1")) for i in range(3)]
    operators = [Operator("oA", {0: 0}, {0: 1}, 1),
                 Operator("oAB", {0: 0, 1: 0}, {0: 1, 1: 1}, 1)]
    return Task(variables, operators, (0, 0, 0), {0: 1, 1: 1, 2: 1})


def test_context_graph_triple_feature():
    task = three_var_task()
    fs = FeatureSet((Feature.of(((0, 0), (1, 0), (2, 0))),))
    graph_a = context_dependency_graph(task, fs, 0)
    assert graph_a.edges == frozenset({(1, 2)})
    graph_ab = context_dependency_graph(task, fs, 1)
    assert graph_ab.edges == frozenset()


def test_min_fill_path():
    graph = DependencyGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    order = min_fill_order(graph)
    assert sorted(order) == [0, 1, 2]
    assert induced_width(graph, order) == 1


def test_min_fill_star():
    center, leaves = 0, (1, 2, 3)
    graph = DependencyGraph((0, 1, 2, 3),
                            frozenset((center, leaf) for leaf in leaves))
    order = min_fill_order(graph)
    assert induced_width(graph, order) == 1
    # elimination runs back to front: the first victims are leaves
    assert order[-1] in leaves and order[-2] in leaves


def test_induced_width_examples():
    edge_free = DependencyGraph((0, 1, 2), frozenset())
    assert induced_width(edge_free, [0, 1, 2]) == 0
    triangle = DependencyGraph((0, 1, 2), frozenset({(0, 1), (0, 2), (1, 2)}))
    assert induced_width(triangle, [2, 0, 1]) == 2
    path = DependencyGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    assert induced_width(path, [1, 0, 2]) == 1  # order B, A, C
    with pytest.raises(OrderingError):
        induced_width(path, [0, 1])


def test_worked_example_structure(paper_be):
    system = bucket_eliminate(paper_be, [0, 1])
    assert len(system.equations) == 4
    shapes = [[candidate_shape(c) for c in eq.candidates] for eq in system.equations]
    assert shapes[0] == [(0.0, {"a": 8.0}), (0.0, {"b": 7.0})]
    assert shapes[1] == [(0.0, {"b": -3.0}), (0.0, {})]
    aux1, aux2, aux3 = (system.equations[i].name for i in range(3))
    assert shapes[2] == [(0.0, {"a": 3.0, "b": -2.0, aux1: 1.0}),
                        (0.0, {"a": 4.0, "b": 2.0, aux2: 1.0})]
    assert shapes[3] == [(0.0, {aux3: 1.0})]
    assert system.result_name == system.equations[3].name


def test_worked_example_evaluation(paper_be):
    system = bucket_eliminate(paper_be, [0, 1])
    aux, result = system.evaluate({"a": 1.0, "b": 1.0})
    assert list(aux.values()) == [8.0, 0.0, 9.0, 9.0]
    assert result == 9.0
    # cross-check against enumeration of the four assignments
    assert brute_force_max(paper_be, {"a": 1.0, "b": 1.0}) == 9.0


def test_zero_entries_kept_only_over_empty_scope():
    """An all-zero entry gets an unknown only when elimination leaves no
    scope; over a non-empty scope it stays absent and its function is
    dropped."""
    a = LinearExpression.term("a")
    pair = ScopedFunctionSet({0: 2, 1: 2}, [ScopedFunction((0, 1), {})])
    assert [eq.name for eq in bucket_eliminate(pair, [0, 1]).equations] == \
        ["z_result"]
    single = ScopedFunctionSet({0: 2, 1: 2}, [ScopedFunction((0,), {}),
                                              ScopedFunction((1,), {(1,): a})])
    system = bucket_eliminate(single, [0, 1])
    shapes = [(eq.name, [candidate_shape(c) for c in eq.candidates])
              for eq in system.equations]
    assert shapes == [("z_v1", [(0.0, {}), (0.0, {"a": 1.0})]),
                      ("z_v0", [(0.0, {}), (0.0, {})]),
                      ("z_result", [(0.0, {"z_v1": 1.0, "z_v0": 1.0})])]


def test_worked_example_lp_rows(paper_be):
    system = bucket_eliminate(paper_be, [0, 1])
    pieces = to_lp_constraints(system)
    assert len(pieces.rows) == 6
    assert len(pieces.aux_unknowns) == 3  # the final alias adds no unknown
    assert pieces.result == LinearExpression.term(system.equations[2].name)


def test_single_constant_equation_keeps_row():
    system = EquationSystem([AuxEquation("aux", [LinearExpression.const(5.0)]),
                             AuxEquation("result", [LinearExpression.term("aux")])])
    pieces = to_lp_constraints(system)
    assert len(pieces.rows) == 1 and pieces.aux_unknowns == ["aux"]
    assert pieces.result == LinearExpression.term("aux")
    row = pieces.rows[0]
    assert row.expression.coefficients() == {"aux": 1.0}
    assert row.relation == ">=" and row.rhs == 5.0


def test_empty_system_has_no_rows():
    pieces = to_lp_constraints(EquationSystem([]))
    assert pieces.rows == [] and pieces.aux_unknowns == []


def test_empty_psi_gives_zero():
    psi = ScopedFunctionSet(domains={}, functions=[])
    system = bucket_eliminate(psi, [])
    _, result = system.evaluate({})
    assert result == 0.0


def test_incomplete_ordering_rejected(paper_be):
    with pytest.raises(OrderingError):
        bucket_eliminate(paper_be, [0])


def lp_minimum_of_result(psi, order):
    system = bucket_eliminate(psi, order)
    pieces = to_lp_constraints(system)
    model = LpModel()
    for name in pieces.aux_unknowns:
        model.add_unknown(name)
    for row in pieces.rows:
        model.add_row(row.expression, row.relation, row.rhs, row.name)
    model.set_objective("min", pieces.result)
    return solve(model).require_optimal(), system, pieces


@pytest.mark.parametrize("seed", range(40))
def test_numeric_max_oracle(seed):
    psi = random_scoped_set(4, 3, 5, seed)
    graph = dependency_graph(psi)
    order = min_fill_order(graph)
    solution, system, _ = lp_minimum_of_result(psi, order)
    expected = brute_force_max(psi)
    assert solution.objective_value == pytest.approx(expected, abs=1e-9)
    _, bottom_up = system.evaluate({})
    assert bottom_up == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_equation_solutions_satisfy_lp(seed):
    """Bottom-up values of the max-equations satisfy every one-sided row."""
    psi = random_scoped_set(4, 3, 4, seed)
    order = min_fill_order(dependency_graph(psi))
    system = bucket_eliminate(psi, order)
    pieces = to_lp_constraints(system)
    aux_values, _ = system.evaluate({})
    for row in pieces.rows:
        lhs = evaluate(row.expression, aux_values)
        assert lhs >= row.rhs - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_minimizing_aux_recovers_equation_solution(seed):
    psi = random_scoped_set(3, 3, 4, seed)
    order = min_fill_order(dependency_graph(psi))
    system = bucket_eliminate(psi, order)
    pieces = to_lp_constraints(system)
    model = LpModel()
    for name in pieces.aux_unknowns:
        model.add_unknown(name)
    for row in pieces.rows:
        model.add_row(row.expression, row.relation, row.rhs, row.name)
    total = LinearExpression()
    for name in pieces.aux_unknowns:
        total = total + LinearExpression.term(name)
    model.set_objective("min", total)
    solution = solve(model).require_optimal()
    aux_values, _ = system.evaluate({})
    for name in pieces.aux_unknowns:
        assert solution.values[name] == pytest.approx(aux_values[name], abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_size_bounds(seed):
    """Aux and row counts stay within the width-parameterized budget; the
    final summing stage can add one unknown and one row on top."""
    psi = random_scoped_set(4, 3, 5, seed)
    graph = dependency_graph(psi)
    order = min_fill_order(graph)
    width = induced_width(graph, order)
    _, system, pieces = lp_minimum_of_result(psi, order)
    n_vars = len(psi.domains)
    d = max(psi.domains.values())
    aux_budget = n_vars * d ** width
    row_budget = n_vars * d ** (width + 1)
    assert len(pieces.aux_unknowns) <= aux_budget + 1
    assert len(pieces.rows) <= row_budget + 1
    elimination_equations = [eq for eq in system.equations[:-1]]
    assert len(elimination_equations) <= aux_budget
    assert sum(len(eq.candidates) for eq in elimination_equations) <= row_budget


@pytest.mark.parametrize("seed", range(10))
def test_dim2_general_matches_direct(seed):
    task = random_task(4, 3, 6, seed)
    fs = generate_features(task, 2)
    general = solve_general_for_state(task, fs, task.initial_state)
    direct = solve_for_state(task, fs, task.initial_state)
    assert general.value == pytest.approx(direct.value, abs=1e-6)
    for op_index in range(len(task.operators)):
        graph = context_dependency_graph(task, fs, op_index)
        assert graph.edges == frozenset()


def test_general_lp_dim1_reduces_to_plain_rows(toy1):
    fs = generate_features(toy1, 1)
    built = build_general_lp(toy1, fs)
    assert len(built.model.rows) == 3  # goal + one per operator
    assert len(built.model.unknowns) == len(fs)  # no elimination unknowns
    assert solve_general_for_state(toy1, fs, toy1.initial_state).value == \
        pytest.approx(2.0)


def test_general_lp_dim2_value(toy1):
    fs = generate_features(toy1, 2)
    result = solve_general_for_state(toy1, fs, toy1.initial_state)
    assert result.value == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(5))
def test_dim3_general_matches_exhaustive(seed):
    task = random_task(4, 3, 5, seed)
    fs = random_features(task, 10, 3, seed)
    general = solve_general_for_state(task, fs, task.initial_state)
    reference = solve_exhaustive_for_state(task, fs, task.initial_state)
    assert general.value == pytest.approx(reference.value, abs=1e-6)


def test_explicit_ordering_still_correct(paper_be):
    for order in itertools.permutations([0, 1]):
        _, system, _ = None, bucket_eliminate(paper_be, list(order)), None
        _, result = system.evaluate({"a": 1.0, "b": 1.0})
        assert result == 9.0


def test_k4_reduction_weights_satisfy_consistency_rows():
    """Plugging the reduction's fixed weights (with bottom-up aux values)
    into the general model satisfies every consistency row; only the
    goal-awareness row fails, as that potential is not goal-aware."""
    red = reduce_3col(complete_graph(4))
    task, fs = red.task, red.features
    built = build_general_lp(task, fs)
    assignment = {}
    for i, f in enumerate(fs.features):
        assignment[weight_var_name(f)] = red.weights[i]
    widths = []
    for op_index, op in enumerate(task.operators):
        graph = context_dependency_graph(task, fs, op_index)
        order = min_fill_order(graph)
        widths.append(induced_width(graph, order))
        psi = scoped_functions_for_operator(task, fs, op_index, built.weight_vars)
        if psi.functions:
            system = bucket_eliminate(psi, order, prefix=f"z_o{op_index}")
            aux_values, _ = system.evaluate(assignment)
            assignment.update(aux_values)
    assert max(widths) == 3  # the switch operator sees the whole graph
    # aliased aux names appear in the evaluation but not as model unknowns
    name_of = {name for name, _, _ in built.model.unknowns}
    assert name_of <= set(assignment)
    for row in built.model.rows:
        lhs = evaluate(row.expression, assignment)
        if row.name == "goal":
            assert lhs > 0  # the reduction potential is not goal-aware
        elif row.relation == "<=":
            assert lhs <= row.rhs + 1e-9, row.name
        else:
            assert lhs >= row.rhs - 1e-9, row.name


def test_general_lp_splits_without_classifying(monkeypatch):
    import potplan.direct2d as direct2d
    task = random_task(4, 3, 6, 0)
    fs = random_features(task, 10, 3, 0)

    def refuse(*args):
        raise AssertionError("the assembler classified a feature")

    for name, module in list(sys.modules.items()):
        if name == "potplan" or name.startswith("potplan."):
            for attr in ("classify_features", "delta_independent"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    graphs = []
    width = direct2d.induced_width
    monkeypatch.setattr(direct2d, "induced_width",
                        lambda graph, order: graphs.append(graph) or width(graph, order))
    built = build_general_lp(task, fs)
    monkeypatch.undo()
    # every operator is touched by a context-dependent feature here, so each
    # has its graph built, and it is the operator's context-dependency graph
    assert graphs == [context_dependency_graph(task, fs, op_index)
                      for op_index in range(len(task.operators))]
    # one function per feature sharing a variable with the operator, no more
    for op_index, op in enumerate(task.operators):
        psi = scoped_functions_for_operator(task, fs, op_index, built.weight_vars)
        assert len(psi.functions) == sum(1 for f in fs.features
                                         if set(f.variables) & set(op.eff))
