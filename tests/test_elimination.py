import itertools
import random

import numpy as np
import pytest

from potplan.direct2d import (build_general_lp, solve_exhaustive_for_state,
                              solve_for_state, solve_general_for_state,
                              weight_var_name)
from potplan.elimination import (DependencyGraph, OrderingError, ScopedFunction,
                                 brute_force_max, bucket_eliminate,
                                 context_dependency_graph, dependency_graph,
                                 eliminate_graphs, induced_width, min_fill_order,
                                 scoped_functions_for_operator)
from potplan.features import Feature, FeatureSet, generate_features
from potplan.generator import random_features, random_scoped_set, random_task
from potplan.lp import LinearExpression, evaluate, export_lp, solve
from potplan.reduction import complete_graph, reduce_3col
from potplan.task import Operator, Task, Variable

from conftest import (PAPER_BE_DOMAINS, base_model, bottom_up_values, candidates,
                      eliminate, make_alias_task)
from reference_builders import (delta_independent, reference_induced_width,
                                reference_min_fill_order)


def test_scoped_functions_toy1(toy1):
    fs = generate_features(toy1, 2)
    functions = scoped_functions_for_operator(toy1, fs, 0)
    dependent = [fn for fn in functions if fn.scope]
    entries = []
    for fn in dependent:
        assert fn.scope == (1,)
        entries += list(fn.table.items())
    # X=0&Y=0 contributes +w at Y=0; X=1&Y=1 contributes -w at Y=1
    plus = fs.index_of(Feature.of(((0, 0), (1, 0))))
    minus = fs.index_of(Feature.of(((0, 1), (1, 1))))
    assert ((0,), {plus: 1.0}) in entries
    assert ((1,), {minus: -1.0}) in entries
    assert len(dependent) == 4  # one per context feature
    # X=0 and X=1 change by a constant: functions of the empty scope
    independent = [fn.table for fn in functions if not fn.scope]
    assert independent == [{(): {fs.index_of(Feature.of(((0, 0),))): 1.0}},
                           {(): {fs.index_of(Feature.of(((0, 1),))): -1.0}}]


def test_scoped_functions_independent_have_empty_scope(toy1):
    fs = generate_features(toy1, 1)
    op = toy1.operators[0]
    functions = scoped_functions_for_operator(toy1, fs, 0)
    expected = [i for i, f in enumerate(fs.features) if set(f.variables) <= set(op.eff)]
    assert len(functions) == len(expected) == 2
    for i, fn in zip(expected, functions):
        assert fn.scope == ()
        change = delta_independent(op, fs.features[i])
        assert fn.table.get((), {}) == ({i: float(change)} if change else {})


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


def random_graphs(seed, count):
    """`count` seeded graphs over the same seed % 21 vertices, with ids that
    are not contiguous and listed in no particular order, at edge densities
    rising from empty to complete."""
    rng = random.Random(f"graphs:{seed}")
    ids = sorted(rng.sample(range(3 * 20), seed % 21))
    return [DependencyGraph(tuple(rng.sample(ids, len(ids))),
                            frozenset(pair for pair in itertools.combinations(ids, 2)
                                      if rng.random() < i / (count - 1)))
            for i in range(count)]


@pytest.mark.parametrize("seed", range(21))
def test_elimination_game_matches_reference_loops(seed):
    """The array game gives the min-fill orders and induced widths of the
    game played one vertex at a time, graph by graph and with all graphs in
    one call, under min-fill and under random given orders."""
    graphs = random_graphs(seed, 24)
    rng = random.Random(f"orders:{seed}")
    given = [rng.sample(graph.vertices, len(graph.vertices)) for graph in graphs]
    expected = [reference_min_fill_order(graph) for graph in graphs]
    for graph, order, min_fill in zip(graphs, given, expected):
        assert min_fill_order(graph) == min_fill
        assert induced_width(graph, min_fill) == reference_induced_width(graph, min_fill)
        assert induced_width(graph, order) == reference_induced_width(graph, order)
    ids = sorted(graphs[0].vertices)
    index = {v: i for i, v in enumerate(ids)}
    adjacency = np.zeros((len(graphs), len(ids), len(ids)), dtype=bool)
    for k, graph in enumerate(graphs):
        for u, v in graph.edges:
            adjacency[k, index[u], index[v]] = adjacency[k, index[v], index[u]] = True
    named = [[index[v] for v in order] if k % 2 else [-1] * len(ids)
             for k, order in enumerate(given)]
    orders, widths = eliminate_graphs(adjacency, named)
    for k, graph in enumerate(graphs):
        order = given[k] if k % 2 else expected[k]
        assert [ids[i] for i in orders[k].tolist()] == order
        assert widths[k] == reference_induced_width(graph, order)


def paper_model(functions, order):
    """The worked example eliminated over the base columns a and b."""
    model = base_model("a", "b")
    result = eliminate(model, functions, PAPER_BE_DOMAINS, order)
    return model, result


def test_worked_example_structure(paper_be):
    model, result = paper_model(paper_be, [0, 1])
    system = candidates(model)
    assert len(system) == 3
    shapes = [shape for _, shape in system]
    assert shapes[0] == [(0.0, {"a": 8.0}), (0.0, {"b": 7.0})]
    assert shapes[1] == [(0.0, {"b": -3.0}), (0.0, {})]
    aux1, aux2, aux3 = (name for name, _ in system)
    assert shapes[2] == [(0.0, {"a": 3.0, "b": -2.0, aux1: 1.0}),
                        (0.0, {"a": 4.0, "b": 2.0, aux2: 1.0})]
    assert result == {aux3: 1.0}


def test_worked_example_evaluation(paper_be):
    model, result = paper_model(paper_be, [0, 1])
    values = bottom_up_values(model, {"a": 1.0, "b": 1.0})
    assert [values[name] for name, _, _ in model.unknowns[2:]] == [8.0, 0.0, 9.0]
    assert evaluate(LinearExpression.build(0.0, result), values) == 9.0
    # cross-check against enumeration of the four assignments
    assert brute_force_max(paper_be, PAPER_BE_DOMAINS, [1.0, 1.0]) == 9.0


def test_zero_entries_kept_only_over_empty_scope():
    """An all-zero entry gets an unknown only when elimination leaves no
    scope; over a non-empty scope it stays absent and its function is
    dropped."""
    a = {0: 1.0}
    model = base_model("a")
    assert eliminate(model, [ScopedFunction((0, 1), {})], (2, 2), [0, 1]) == {}
    assert [name for name, _, _ in model.unknowns] == ["a"] and not model.rows
    model = base_model("a")
    result = eliminate(model, [ScopedFunction((0,), {}), ScopedFunction((1,), {(1,): a})],
                       (2, 2), [0, 1])
    assert candidates(model) == [("z_v1", [(0.0, {}), (0.0, {"a": 1.0})]),
                                 ("z_v0", [(0.0, {}), (0.0, {})])]
    assert result == {"z_v1": 1.0, "z_v0": 1.0}


def test_worked_example_lp_rows(paper_be):
    model, result = paper_model(paper_be, [0, 1])
    assert len(model.rows) == 6
    aux = [name for name, _, _ in model.unknowns[2:]]
    assert len(aux) == 3  # the final sum adds no unknown
    assert result == {aux[2]: 1.0}


def test_single_constant_equation_keeps_row():
    """A single candidate that is a constant (on a unit column) is no alias:
    its unknown and row stay."""
    model = base_model("one", lower=1.0, upper=1.0)
    result = eliminate(model, [ScopedFunction((0,), {(0,): {0: 5.0}})], (1,), [0])
    assert [name for name, _, _ in model.unknowns] == ["one", "z_v0"]
    assert result == {"z_v0": 1.0}
    (row,) = model.rows
    assert row.expression.coefficients() == {"z_v0": 1.0, "one": -5.0}
    assert row.relation == ">=" and row.rhs == 0.0


def test_empty_system_has_no_rows():
    model = base_model()
    assert bucket_eliminate(model, [], (), []) == ({}, [])
    assert not model.unknowns


def test_empty_psi_gives_zero():
    model = base_model()
    result = eliminate(model, [], (), [])
    assert evaluate(LinearExpression.build(0.0, result), bottom_up_values(model, {})) == 0.0


def test_incomplete_ordering_rejected(paper_be):
    with pytest.raises(OrderingError):
        bucket_eliminate(base_model("a", "b"), paper_be, PAPER_BE_DOMAINS, [0])


def test_alias_adds_no_unknown():
    """A domain-1 variable whose single candidate is an earlier unknown
    becomes that unknown: no column and no row of its own, and the cost row
    holds the unknown it stands for."""
    task, fs = make_alias_task()
    text = export_lp(build_general_lp(task, fs, {0: [0, 1, 2]}))
    assert " op0: z_o0_v2__v1.0 <= 1.0\n" in text
    assert "z_o0_v1" not in text
    model = base_model("w0", "w1")
    functions = scoped_functions_for_operator(task, fs, 0)
    result, rows = bucket_eliminate(model, functions, task.domain_sizes, [0, 1, 2], "z_o0")
    assert [name for name, _, _ in model.unknowns] == ["w0", "w1", "z_o0_v2__v1.0"]
    assert result == {2: 1.0}
    assert rows == [("z_o0_v2__v1.0.0", {2: 1.0, 0: -1.0}),
                    ("z_o0_v2__v1.0.1", {2: 1.0, 1: -1.0})]


def lp_minimum_of_result(functions, domains, order):
    """Minimize the result over the elimination rows, with the constants on
    column 0 fixed at 1."""
    model = base_model("one", lower=1.0, upper=1.0)
    result = eliminate(model, functions, domains, order)
    model.set_objective("min", model.column_terms(LinearExpression.build(0.0, result)))
    return solve(model).require_optimal(), model, result


def bottom_up_result(model, result):
    values = bottom_up_values(model, {"one": 1.0})
    return evaluate(LinearExpression.build(0.0, result), values), values


@pytest.mark.parametrize("seed", range(40))
def test_numeric_max_oracle(seed):
    domains, functions = random_scoped_set(4, 3, 5, seed)
    graph = dependency_graph(functions, range(len(domains)))
    order = min_fill_order(graph)
    solution, model, result = lp_minimum_of_result(functions, domains, order)
    expected = brute_force_max(functions, domains, [1.0])
    assert solution.objective_value == pytest.approx(expected, abs=1e-9)
    bottom_up, _ = bottom_up_result(model, result)
    assert bottom_up == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_equation_solutions_satisfy_lp(seed):
    """Bottom-up values of the max-equations satisfy every one-sided row."""
    domains, functions = random_scoped_set(4, 3, 4, seed)
    order = min_fill_order(dependency_graph(functions, range(len(domains))))
    model = base_model("one", lower=1.0, upper=1.0)
    eliminate(model, functions, domains, order)
    aux_values = bottom_up_values(model, {"one": 1.0})
    for row in model.rows:
        lhs = evaluate(row.expression, aux_values)
        assert lhs >= row.rhs - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_minimizing_aux_recovers_equation_solution(seed):
    domains, functions = random_scoped_set(3, 3, 4, seed)
    order = min_fill_order(dependency_graph(functions, range(len(domains))))
    model = base_model("one", lower=1.0, upper=1.0)
    eliminate(model, functions, domains, order)
    aux = [name for name, _, _ in model.unknowns[1:]]
    model.set_objective("min", dict.fromkeys(range(1, len(model.unknowns)), 1.0))
    solution = solve(model).require_optimal()
    aux_values = bottom_up_values(model, {"one": 1.0})
    for name in aux:
        assert solution.values[name] == pytest.approx(aux_values[name], abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_size_bounds(seed):
    """Aux and row counts stay within the width-parameterized budget; the
    final sum adds no unknown and no row."""
    domains, functions = random_scoped_set(4, 3, 5, seed)
    graph = dependency_graph(functions, range(len(domains)))
    order = min_fill_order(graph)
    width = induced_width(graph, order)
    _, model, _ = lp_minimum_of_result(functions, domains, order)
    n_vars = len(domains)
    d = max(domains)
    aux_budget = n_vars * d ** width
    row_budget = n_vars * d ** (width + 1)
    assert len(model.unknowns) - 1 <= aux_budget
    assert len(model.rows) <= row_budget


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
    model = build_general_lp(toy1, fs)
    assert len(model.rows) == 3  # goal + one per operator
    assert len(model.unknowns) == len(fs)  # no elimination unknowns
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
        model, result = paper_model(paper_be, list(order))
        values = bottom_up_values(model, {"a": 1.0, "b": 1.0})
        assert evaluate(LinearExpression.build(0.0, result), values) == 9.0


def test_k4_reduction_weights_satisfy_consistency_rows():
    """Plugging the reduction's fixed weights (with bottom-up aux values)
    into the general model satisfies every consistency row; only the
    goal-awareness row fails, as that potential is not goal-aware."""
    red = reduce_3col(complete_graph(4))
    task, fs = red.task, red.features
    model = build_general_lp(task, fs)
    widths = []
    for op_index in range(len(task.operators)):
        graph = context_dependency_graph(task, fs, op_index)
        widths.append(induced_width(graph, min_fill_order(graph)))
    assert max(widths) == 3  # the switch operator sees the whole graph
    assignment = bottom_up_values(model, {weight_var_name(f): red.weights[i]
                                                for i, f in enumerate(fs.features)})
    for row in model.rows:
        lhs = evaluate(row.expression, assignment)
        if row.name == "goal":
            assert lhs > 0  # the reduction potential is not goal-aware
        elif row.relation == "<=":
            assert lhs <= row.rhs + 1e-9, row.name
        else:
            assert lhs >= row.rhs - 1e-9, row.name


def test_general_lp_graphs_and_functions_per_operator(monkeypatch):
    import potplan.direct2d as direct2d
    task = random_task(4, 3, 6, 0)
    fs = random_features(task, 10, 3, 0)
    graphs = [context_dependency_graph(task, fs, k) for k in range(len(task.operators))]
    with_edges = [k for k, graph in enumerate(graphs) if graph.edges]
    assert len(with_edges) == 3
    width0 = next(k for k in range(len(graphs)) if k not in with_edges)
    named = {width0: list(range(len(task.variables)))}
    game = direct2d.eliminate_graphs
    # one build plays the elimination game once, over the operators whose
    # context-dependency graph has edges and those named in `orderings`,
    # min-fill (-1) for all but the named; the others are eliminated at width 0
    for orderings, played in ((None, with_edges), (named, sorted(with_edges + [width0]))):
        calls = []
        monkeypatch.setattr(direct2d, "eliminate_graphs",
                            lambda adjacency, given: calls.append((adjacency, given))
                            or game(adjacency, given))
        build_general_lp(task, fs, orderings)
        monkeypatch.undo()
        assert len(calls) == 1
        adjacency, given = calls[0]
        assert [frozenset(zip(*(u.tolist() for u in np.nonzero(np.triu(graph)))))
                for graph in adjacency] == [graphs[k].edges for k in played]
        assert given.tolist() == [(orderings or {}).get(k, [-1] * len(task.variables))
                                  for k in played]
    # one function per feature sharing a variable with the operator, no more
    for op_index, op in enumerate(task.operators):
        functions = scoped_functions_for_operator(task, fs, op_index)
        assert len(functions) == sum(1 for f in fs.features
                                     if set(f.variables) & set(op.eff))
