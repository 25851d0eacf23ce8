import random

import pytest

from potplan.features import evaluate_potential
from potplan.reduction import (Graph, GraphError, TooLargeError, is_3colorable,
                               parse_dimacs, reduce_3col)
from potplan.search import validate
from potplan.task import build_transition_system, is_applicable
from potplan.tnf import is_tnf

from reference_builders import complete_graph, cycle_graph, empty_graph


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.of(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph.of(0, [])
    g = Graph.of(3, [(2, 0)])
    assert g.edges == frozenset({(0, 2)})


def test_colorability_oracle():
    assert is_3colorable(complete_graph(3))
    assert not is_3colorable(complete_graph(4))
    assert is_3colorable(cycle_graph(5))
    assert is_3colorable(empty_graph(1))
    with pytest.raises(TooLargeError):
        is_3colorable(empty_graph(20))


def test_parse_dimacs():
    g = parse_dimacs("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == complete_graph(3)
    with pytest.raises(GraphError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(GraphError):
        parse_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(GraphError, match="^line 1: expected integers"):
        parse_dimacs("p edge x 3\n")
    with pytest.raises(GraphError, match="^line 2: expected integers"):
        parse_dimacs("p edge 3 1\ne 1 z\n")


def test_reduction_k3_shape():
    red = reduce_3col(complete_graph(3))
    assert len(red.task.variables) == 4
    assert len(red.task.operators) == 3 * 6 + 1 == 19
    assert is_tnf(red.task)
    triples = [f for f in red.features if f.size == 3]
    assert len(triples) == 3 * 2 * 9 == 54
    assert sum(1 for v in red.weights if v == -1.0) == 3 * 6 == 18
    assert red.weights[red.master_feature] == 2.0  # edges minus one


def test_reduction_k4_master_weight():
    red = reduce_3col(complete_graph(4))
    assert red.weights[red.master_feature] == 5.0
    assert red.task.state_count() == 162


def test_reduction_single_vertex():
    red = reduce_3col(empty_graph(1))
    assert red.weights[red.master_feature] == -1.0
    ts = build_transition_system(red.task)
    for s in map(tuple, ts.states.tolist()):
        if s[red.master_var] == 1:
            assert evaluate_potential(red.features, red.weights, s) == -1.0
    # vacuously colorable, so the potential must be inconsistent
    report = validate(red.task, lambda s: evaluate_potential(red.features, red.weights, s))
    assert not report.consistent


def test_phi_trichotomy_k4():
    red = reduce_3col(complete_graph(4))
    ts = build_transition_system(red.task)
    for s in map(tuple, ts.states.tolist()):
        value = evaluate_potential(red.features, red.weights, s)
        if s[red.master_var] == 0:
            assert value == 0.0
        else:
            assert value >= -1.0
            coloring = all(s[u] != s[v] for u, v in red.graph.edges)
            assert (value == -1.0) == coloring


def test_all_red_switched_state_value_k4():
    red = reduce_3col(complete_graph(4))
    state = tuple([0] * 4 + [1])
    assert evaluate_potential(red.features, red.weights, state) == 5.0


def test_proper_coloring_value_k3():
    red = reduce_3col(complete_graph(3))
    state = (0, 1, 2, 1)  # distinct colors, switch on
    assert evaluate_potential(red.features, red.weights, state) == -1.0


def test_nothing_applicable_after_switch():
    red = reduce_3col(complete_graph(3))
    ts = build_transition_system(red.task)
    for s in map(tuple, ts.states.tolist()):
        if s[red.master_var] == 1:
            assert not any(is_applicable(op, s) for op in red.task.operators)


def graph_family():
    graphs = [complete_graph(3), complete_graph(4), cycle_graph(5), empty_graph(4)]
    rng = random.Random("family:7")
    for _ in range(12):
        n = rng.randint(1, 5)
        edges = [e for e in
                 [(u, v) for u in range(n) for v in range(u + 1, n)]
                 if rng.random() < 0.5]
        graphs.append(Graph.of(n, edges))
    return graphs


@pytest.mark.parametrize("index,graph", list(enumerate(graph_family())))
def test_consistency_iff_not_colorable(index, graph):
    red = reduce_3col(graph)
    report = validate(red.task, lambda s: evaluate_potential(red.features, red.weights, s))
    assert report.consistent == (not is_3colorable(graph))
    if not report.consistent:
        # the counterexample is a genuine violation: a switch into a coloring
        state, op_id = report.counterexample, report.operator
        op = red.task.operators[op_id]
        from potplan.task import successor
        after = successor(state, op)
        phi_state, phi_after = (evaluate_potential(red.features, red.weights, s)
                                for s in (state, after))
        assert phi_state > op.cost + phi_after
