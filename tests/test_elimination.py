import itertools
import random

import numpy as np
import pytest

from potplan.direct2d import build_general_lp, solve_for_state
from potplan.elimination import (OrderingError, adjacency, check_order, classify,
                                 eliminate_graphs)
from potplan.features import Feature, FeatureSet, generate_features, kept_features
from potplan.generator import random_task
from potplan.lp import LinearExpression, export_lp, solve
from potplan.reduction import reduce_3col
from potplan.task import Operator, Task, Variable

from conftest import (PAPER_BE_DOMAINS, base_model, bottom_up_values, candidates,
                      eliminate, make_alias_task)
from reference_builders import (DependencyGraph, ScopedFunction, brute_force_max,
                                column_terms, complete_graph, delta_independent,
                                dependency_graph, evaluate, model_rows, random_features,
                                random_scoped_set, reference_bucket_eliminate,
                                reference_induced_width, reference_min_fill_order,
                                solution_values, solve_exhaustive_for_state,
                                solve_general_for_state, variables_of, weight_var_name)


def operator_pairs(task, fs, op_index):
    """The operator's pairs from `classify`: (feature, its facts outside the
    operator, its change inside)."""
    classes = classify(task, fs)
    facts = fs.fact_table[classes.feature]
    return [(int(classes.feature[p]), tuple(map(tuple, facts[p][classes.outside[p]].tolist())),
             int(classes.change[p]))
            for p in range(classes.starts[op_index], classes.starts[op_index + 1])]


def graph_edges(task, fs):
    """Every operator's context-dependency graph as its set of edges (u, v),
    u < v."""
    return [frozenset(zip(*(u.tolist() for u in np.nonzero(np.triu(graph)))))
            for graph in adjacency(task, fs, classify(task, fs))]


def min_fill_widths(task, fs):
    graphs = adjacency(task, fs, classify(task, fs))
    return eliminate_graphs(graphs, np.full(graphs.shape[:2], -1))[1].tolist()


def test_scoped_functions_toy1(toy1):
    fs = generate_features(toy1, 2)
    pairs = operator_pairs(toy1, fs, 0)
    dependent = [pair for pair in pairs if pair[1]]
    assert all(len(facts) == 1 and facts[0][0] == 1 for _, facts, _ in dependent)
    # X=0&Y=0 contributes +w at Y=0; X=1&Y=1 contributes -w at Y=1
    plus = fs.features.index(Feature.of(((0, 0), (1, 0))))
    minus = fs.features.index(Feature.of(((0, 1), (1, 1))))
    assert (plus, ((1, 0),), 1) in dependent
    assert (minus, ((1, 1),), -1) in dependent
    assert len(dependent) == 4  # one per context feature
    # X=0 and X=1 change by a constant: no facts outside
    independent = [(i, change) for i, facts, change in pairs if not facts]
    assert independent == [(fs.features.index(Feature.of(((0, 0),))), 1),
                           (fs.features.index(Feature.of(((0, 1),))), -1)]


def test_scoped_functions_independent_have_empty_scope(toy1):
    fs = generate_features(toy1, 1)
    op = toy1.operators[0]
    pairs = operator_pairs(toy1, fs, 0)
    expected = [i for i, f in enumerate(fs.features) if set(variables_of(f)) <= set(op.eff)]
    assert [i for i, _, _ in pairs] == expected and len(expected) == 2
    for i, facts, change in pairs:
        assert facts == ()
        assert change == delta_independent(op, fs.features[i])


def test_context_graph_dim2_is_edge_free(toy1):
    fs = generate_features(toy1, 2)
    assert graph_edges(toy1, fs) == [frozenset()] * len(toy1.operators)
    assert min_fill_widths(toy1, fs) == [0] * len(toy1.operators)


def three_var_task():
    variables = [Variable(i, f"v{i}", 2, ("0", "1")) for i in range(3)]
    operators = [Operator("oA", {0: 0}, {0: 1}, 1),
                 Operator("oAB", {0: 0, 1: 0}, {0: 1, 1: 1}, 1)]
    return Task(variables, operators, (0, 0, 0), {0: 1, 1: 1, 2: 1})


def test_context_graph_triple_feature():
    task = three_var_task()
    fs = FeatureSet.of((Feature.of(((0, 0), (1, 0), (2, 0))),))
    assert graph_edges(task, fs) == [frozenset({(1, 2)}), frozenset()]


def stacked(graphs):
    """Graphs over the same vertices as one adjacency array, the vertices
    indexed by increasing id, and those ids."""
    ids = sorted(graphs[0].vertices)
    index = {v: i for i, v in enumerate(ids)}
    matrix = np.zeros((len(graphs), len(ids), len(ids)), dtype=bool)
    for k, graph in enumerate(graphs):
        for u, v in graph.edges:
            matrix[k, index[u], index[v]] = matrix[k, index[v], index[u]] = True
    return matrix, ids


def game(graph, order=None):
    """`eliminate_graphs` on the one graph along the order or (None)
    min-fill: the order and the induced width."""
    matrix, ids = stacked([graph])
    given = [-1] * len(ids) if order is None else [ids.index(v) for v in order]
    orders, widths = eliminate_graphs(matrix, [given])
    return [ids[i] for i in orders[0].tolist()], int(widths[0])


def test_min_fill_path():
    graph = DependencyGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    order, width = game(graph)
    assert sorted(order) == [0, 1, 2]
    assert width == 1


def test_min_fill_star():
    center, leaves = 0, (1, 2, 3)
    graph = DependencyGraph((0, 1, 2, 3),
                            frozenset((center, leaf) for leaf in leaves))
    order, width = game(graph)
    assert width == 1
    # elimination runs back to front: the first victims are leaves
    assert order[-1] in leaves and order[-2] in leaves


def test_induced_width_examples():
    edge_free = DependencyGraph((0, 1, 2), frozenset())
    assert game(edge_free, [0, 1, 2])[1] == 0
    triangle = DependencyGraph((0, 1, 2), frozenset({(0, 1), (0, 2), (1, 2)}))
    assert game(triangle, [2, 0, 1])[1] == 2
    path = DependencyGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    assert game(path, [1, 0, 2])[1] == 1  # order B, A, C
    with pytest.raises(OrderingError):
        check_order([0, 1], path.vertices)


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
        assert game(graph) == (min_fill, reference_induced_width(graph, min_fill))
        assert game(graph, order) == (order, reference_induced_width(graph, order))
    adjacency, ids = stacked(graphs)
    named = [[ids.index(v) for v in order] if k % 2 else [-1] * len(ids)
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
    assert [values[name] for name in model.names[2:]] == [8.0, 0.0, 9.0]
    assert evaluate(LinearExpression.build(0.0, result), values) == 9.0
    # cross-check against enumeration of the four assignments
    assert brute_force_max(paper_be, PAPER_BE_DOMAINS, {"a": 1.0, "b": 1.0}) == 9.0


def test_zero_entries_kept_only_over_empty_scope():
    """An all-zero entry gets an unknown only when elimination leaves no
    scope; over a non-empty scope it stays absent and its function is
    dropped."""
    a = LinearExpression.term("a")
    model = base_model("a")
    assert eliminate(model, [ScopedFunction((0, 1), {})], {0: 2, 1: 2}, [0, 1]) == {}
    assert model.names == ["a"] and not model_rows(model)
    model = base_model("a")
    result = eliminate(model, [ScopedFunction((0,), {}), ScopedFunction((1,), {(1,): a})],
                       {0: 2, 1: 2}, [0, 1])
    assert candidates(model) == [("z_v1", [(0.0, {}), (0.0, {"a": 1.0})]),
                                 ("z_v0", [(0.0, {}), (0.0, {})])]
    assert result == {"z_v1": 1.0, "z_v0": 1.0}


def test_worked_example_lp_rows(paper_be):
    model, result = paper_model(paper_be, [0, 1])
    assert len(model_rows(model)) == 6
    aux = model.names[2:]
    assert len(aux) == 3  # the final sum adds no unknown
    assert result == {aux[2]: 1.0}


def test_single_constant_equation_keeps_row():
    """A single candidate that is a constant (on a unit column) is no alias:
    its unknown and row stay."""
    model = base_model("one", lower=1.0, upper=1.0)
    result = eliminate(model, [ScopedFunction((0,), {(0,): LinearExpression.term("one", 5.0)})],
                       {0: 1}, [0])
    assert model.names == ["one", "z_v0"]
    assert result == {"z_v0": 1.0}
    (row,) = model_rows(model)
    assert row.expression.coefficients() == {"z_v0": 1.0, "one": -5.0}
    assert row.relation == ">=" and row.rhs == 0.0


def test_empty_system_has_no_rows():
    model = base_model()
    assert eliminate(model, [], {}, []) == {}
    assert not model.names and not model_rows(model)


def test_empty_psi_gives_zero():
    model = base_model()
    result = eliminate(model, [], {}, [])
    assert evaluate(LinearExpression.build(0.0, result), bottom_up_values(model, {})) == 0.0


def test_incomplete_ordering_rejected(paper_be):
    with pytest.raises(OrderingError):
        reference_bucket_eliminate(PAPER_BE_DOMAINS, paper_be, [0])


def test_alias_adds_no_unknown():
    """A domain-1 variable whose single candidate is an earlier unknown
    becomes that unknown: no column and no row of its own, and the cost row
    holds the unknown it stands for."""
    task, fs = make_alias_task()
    text = export_lp(build_general_lp(task, fs, {0: [0, 1, 2]}))
    assert " op0: z_o0_v2__v1.0 <= 1.0\n" in text
    assert "z_o0_v1" not in text
    model = base_model("w0", "w1")
    functions = [ScopedFunction(tuple(v for v, _ in facts),
                                {tuple(x for _, x in facts): LinearExpression.term(f"w{i}", change)})
                 for i, facts, change in operator_pairs(task, fs, 0)]
    result = eliminate(model, functions, dict(enumerate(task.domain_sizes)), [0, 1, 2], "z_o0")
    assert model.names == ["w0", "w1", "z_o0_v2__v1.0"]
    assert result == {"z_o0_v2__v1.0": 1.0}
    assert [(row.name, row.expression.coefficients()) for row in model_rows(model)] == [
        ("z_o0_v2__v1.0.0", {"z_o0_v2__v1.0": 1.0, "w0": -1.0}),
        ("z_o0_v2__v1.0.1", {"z_o0_v2__v1.0": 1.0, "w1": -1.0})]


def lp_minimum_of_result(functions, domains, order):
    """The minimum of the result over the elimination rows, with the
    constants on column 0 fixed at 1: the negated maximum of the negated
    result."""
    model = base_model("one", lower=1.0, upper=1.0)
    result = eliminate(model, functions, domains, order)
    model.set_objective(column_terms(model, -LinearExpression.build(0.0, result)))
    return -solve(model).require_optimal().objective_value, model, result


def bottom_up_result(model, result):
    values = bottom_up_values(model, {"one": 1.0})
    return evaluate(LinearExpression.build(0.0, result), values), values


@pytest.mark.parametrize("seed", range(40))
def test_numeric_max_oracle(seed):
    domains, functions = random_scoped_set(4, 3, 5, seed)
    order = reference_min_fill_order(dependency_graph(functions, domains))
    minimum, model, result = lp_minimum_of_result(functions, domains, order)
    expected = brute_force_max(functions, domains, {"one": 1.0})
    assert minimum == pytest.approx(expected, abs=1e-9)
    bottom_up, _ = bottom_up_result(model, result)
    assert bottom_up == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_equation_solutions_satisfy_lp(seed):
    """Bottom-up values of the max-equations satisfy every one-sided row."""
    domains, functions = random_scoped_set(4, 3, 4, seed)
    order = reference_min_fill_order(dependency_graph(functions, domains))
    model = base_model("one", lower=1.0, upper=1.0)
    eliminate(model, functions, domains, order)
    aux_values = bottom_up_values(model, {"one": 1.0})
    for row in model_rows(model):
        lhs = evaluate(row.expression, aux_values)
        assert lhs >= row.rhs - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_minimizing_aux_recovers_equation_solution(seed):
    domains, functions = random_scoped_set(3, 3, 4, seed)
    order = reference_min_fill_order(dependency_graph(functions, domains))
    model = base_model("one", lower=1.0, upper=1.0)
    eliminate(model, functions, domains, order)
    aux = model.names[1:]
    model.set_objective(dict.fromkeys(range(1, len(model.names)), -1.0))  # minimize the sum
    solution = solve(model).require_optimal()
    aux_values = bottom_up_values(model, {"one": 1.0})
    values = solution_values(model, solution)
    for name in aux:
        assert values[name] == pytest.approx(aux_values[name], abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_size_bounds(seed):
    """Aux and row counts stay within the width-parameterized budget; the
    final sum adds no unknown and no row."""
    domains, functions = random_scoped_set(4, 3, 5, seed)
    graph = dependency_graph(functions, domains)
    order = reference_min_fill_order(graph)
    width = reference_induced_width(graph, order)
    _, model, _ = lp_minimum_of_result(functions, domains, order)
    n_vars = len(domains)
    d = max(domains.values())
    aux_budget = n_vars * d ** width
    row_budget = n_vars * d ** (width + 1)
    assert len(model.names) - 1 <= aux_budget
    assert len(model_rows(model)) <= row_budget


@pytest.mark.parametrize("seed", range(10))
def test_dim2_general_matches_direct(seed):
    task = random_task(4, 3, 6, seed)
    fs = generate_features(task, 2)
    general = solve_general_for_state(task, fs, task.initial_state)
    direct = solve_for_state(task, fs, task.initial_state)
    assert general.value == pytest.approx(direct.value, abs=1e-6)
    assert graph_edges(task, fs) == [frozenset()] * len(task.operators)


def test_general_lp_dim1_reduces_to_plain_rows(toy1):
    fs = generate_features(toy1, 1)
    model = build_general_lp(toy1, fs)
    assert len(model_rows(model)) == 3  # goal + one per operator
    # the kept weights (Y=0 is pinned), no elimination unknowns
    assert len(model.names) == len(kept_features(fs, toy1.domain_sizes)[0]) == 3
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
    assert max(min_fill_widths(task, fs)) == 3  # the switch operator sees the whole graph
    assignment = bottom_up_values(model, {weight_var_name(f): red.weights[i]
                                                for i, f in enumerate(fs.features)})
    for row in model_rows(model):
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
    graphs = graph_edges(task, fs)
    with_edges = [k for k, edges in enumerate(graphs) if edges]
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
                for graph in adjacency] == [graphs[k] for k in played]
        assert given.tolist() == [(orderings or {}).get(k, [-1] * len(task.variables))
                                  for k in played]
    # one function per feature sharing a variable with the operator, no more
    for op_index, op in enumerate(task.operators):
        assert len(operator_pairs(task, fs, op_index)) == sum(
            1 for f in fs.features if set(variables_of(f)) & set(op.eff))
